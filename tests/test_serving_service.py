"""Tests for the inference service and its HTTP JSON API.

The acceptance bar of the serving subsystem: served predictions — batched,
cache-hit and cache-miss, coalesced and singleton — are **bitwise identical**
to offline :meth:`GCON.decision_scores` on the same bundle and graph.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli.main import main
from repro.core.config import GCONConfig
from repro.core.model import GCON
from repro.core.propagation import graph_fingerprint
from repro.exceptions import ConfigurationError
from repro.graphs.datasets import load_dataset
from repro.serving import (
    InferenceService,
    ModelRegistry,
    OverloadedError,
    format_prediction,
    format_prediction_body,
    serve_http,
)
from repro.serving.service import PredictRequest, estimate_drain_seconds


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora_ml", scale=0.06, seed=0)


@pytest.fixture(scope="module")
def model(graph):
    config = GCONConfig(epsilon=2.0, alpha=0.8, encoder_epochs=20,
                        encoder_dim=8, encoder_hidden=16)
    return GCON(config).fit(graph, seed=7)


@pytest.fixture()
def registry(tmp_path, model):
    registry = ModelRegistry(tmp_path / "reg")
    registry.publish(model, "demo", inference_mode="private",
                     training={"dataset": "cora_ml", "scale": 0.06,
                               "graph_seed": 0})
    return registry


@pytest.fixture()
def service(registry, graph):
    return InferenceService(registry, graph=graph)


class TestOfflineEquivalence:
    """Served == offline, bit for bit, miss and hit, private and public."""

    @pytest.mark.parametrize("mode", ["private", "public"])
    def test_cache_miss_then_hit_are_bitwise_offline(self, service, model,
                                                     graph, mode):
        offline = model.decision_scores(graph, mode=mode)
        nodes = [0, 9, 3, 14, 3]
        miss = service.predict_scores("demo@latest", nodes, mode=mode)
        assert np.array_equal(miss, offline[nodes])
        hit = service.predict_scores("demo@latest", nodes, mode=mode)
        assert np.array_equal(hit, offline[nodes])
        stats = service.stats()["feature_cache"]
        assert stats["feature_misses"] == 1
        assert stats["feature_hits"] == 1

    def test_singleton_request_is_bitwise_offline(self, service, model, graph):
        offline = model.decision_scores(graph, mode="private")
        for node in (0, 5, graph.num_nodes - 1):
            served = service.predict_scores("demo", [node])
            assert np.array_equal(served, offline[[node]])

    def test_predict_labels_match_offline_argmax(self, service, model, graph):
        nodes = list(range(12))
        offline = np.argmax(model.decision_scores(graph, mode="private")[nodes],
                            axis=1)
        assert np.array_equal(service.predict("demo", nodes), offline)

    def test_coalesced_batch_is_bitwise_offline(self, service, model, graph):
        """Many requests flushed as one stacked matmul score identically."""
        offline = model.decision_scores(graph, mode="private")
        tickets = [service.batcher.submit(
            service._session("demo", None)[0], [i, i + 1]) for i in range(8)]
        assert service.batcher.run_once() == 8
        assert service.batcher.stats.matmuls == 1
        for i, ticket in enumerate(tickets):
            assert np.array_equal(ticket.result(1.0), offline[[i, i + 1]])

    def test_default_mode_comes_from_the_manifest(self, service, model, graph):
        # Published with inference_mode="private": no explicit mode must
        # serve Eq. 16 scores.
        offline = model.decision_scores(graph, mode="private")
        assert np.array_equal(service.predict_scores("demo", [1, 2]),
                              offline[[1, 2]])


class TestServiceApi:
    def test_predict_proba_rows_are_distributions(self, service):
        proba = service.predict_proba("demo", [0, 1, 2])
        assert proba.shape[0] == 3
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, rtol=1e-12)
        assert (proba >= 0).all()

    def test_top_k_is_sorted_and_bounded(self, service, model):
        top = service.top_k("demo", [0, 1], k=3)
        assert len(top) == 2
        for per_node in top:
            assert len(per_node) == min(3, model.num_classes_)
            scores = [entry["score"] for entry in per_node]
            assert scores == sorted(scores, reverse=True)

    def test_bad_request_never_reaches_a_shared_batch(self, service, graph):
        """Node validation runs before submit, so one caller's bad index can
        never fail strangers coalesced into the same micro-batch."""
        with pytest.raises(ConfigurationError, match="node indices"):
            service.predict_batch("demo", [graph.num_nodes + 1])
        assert service.batcher.stats.requests == 0  # nothing was enqueued

    def test_predict_batch_names_the_scoring_version(self, service):
        scores, record, mode = service.predict_batch("demo", [0, 1])
        assert scores.shape[0] == 2
        assert record.name == "demo"
        assert mode == "private"

    def test_bad_nodes_and_modes_rejected(self, service, graph):
        with pytest.raises(ConfigurationError, match="node indices"):
            service.predict_scores("demo", [graph.num_nodes + 5])
        with pytest.raises(ConfigurationError, match="node indices"):
            service.predict_scores("demo", [-1])
        with pytest.raises(ConfigurationError, match="mode must be"):
            service.predict_scores("demo", [0], mode="secret")
        with pytest.raises(ConfigurationError, match="not in the registry"):
            service.predict_scores("ghost", [0])

    def test_graph_rebuilds_from_manifest_when_not_injected(self, registry,
                                                            model, graph):
        # The fixture's manifest records no graph_digest: nothing to check.
        service = InferenceService(registry)  # no graph= injection
        offline = model.decision_scores(graph, mode="private")
        assert np.array_equal(service.predict_scores("demo", [0, 1]),
                              offline[[0, 1]])

    def test_health_and_stats_shapes(self, service):
        service.predict("demo", [0])
        health = service.health()
        assert health["status"] == "ok"
        assert any("demo@" in ref for ref in health["models_loaded"])
        stats = service.stats()
        assert stats["batcher"]["requests"] >= 1
        assert stats["feature_cache"]["sessions"] >= 1


class TestTrainingGraphDigest:
    """A graph regenerated from the manifest's provenance is checked
    against the manifest's recorded training ``graph_digest``."""

    @staticmethod
    def _publish(registry, model, name, **digest):
        registry.publish(model, name, inference_mode="private",
                         training={"dataset": "cora_ml", "scale": 0.06,
                                   "graph_seed": 0, **digest})

    def test_wrong_digest_raises_naming_both(self, tmp_path, model, graph):
        registry = ModelRegistry(tmp_path / "reg")
        self._publish(registry, model, "stale", graph_digest="0" * 40)
        service = InferenceService(registry)
        with pytest.raises(ConfigurationError) as error:
            service.predict_scores("stale", [0])
        assert "0" * 40 in str(error.value)
        assert graph_fingerprint(graph.adjacency) in str(error.value)

    def test_right_digest_serves_bitwise_offline(self, tmp_path, model,
                                                 graph):
        registry = ModelRegistry(tmp_path / "reg")
        self._publish(registry, model, "demo",
                      graph_digest=graph_fingerprint(graph.adjacency))
        service = InferenceService(registry)
        offline = model.decision_scores(graph, mode="private")
        assert np.array_equal(service.predict_scores("demo", [0, 1]),
                              offline[[0, 1]])

    def test_manifests_sharing_a_store_are_each_checked(self, tmp_path,
                                                        model, graph):
        registry = ModelRegistry(tmp_path / "reg")
        self._publish(registry, model, "good",
                      graph_digest=graph_fingerprint(graph.adjacency))
        self._publish(registry, model, "stale", graph_digest="f" * 40)
        service = InferenceService(registry)
        service.predict_scores("good", [0])
        with pytest.raises(ConfigurationError, match="f" * 40):
            service.predict_scores("stale", [0])
        assert len(service.graph_epochs()) == 1

    def test_check_outlives_the_history_window(self, tmp_path, model, graph):
        """Updates evict epoch 0's digest from the store's history; the
        check still compares against the graph as it was regenerated."""
        registry = ModelRegistry(tmp_path / "reg")
        digest = graph_fingerprint(graph.adjacency)
        self._publish(registry, model, "demo", graph_digest=digest)
        service = InferenceService(registry)
        service.predict_scores("demo", [0])
        store = service._resolve_store(None)
        for seed in range(store.max_history + 1):
            service.apply_graph_update(sample_insert=1, seed=seed)
        assert 0 not in store.retained_epochs()
        self._publish(registry, model, "later", graph_digest=digest)
        service.predict_scores("later", [0])

    def test_injected_graph_or_loader_skips_the_check(self, tmp_path, model,
                                                      graph):
        registry = ModelRegistry(tmp_path / "reg")
        self._publish(registry, model, "stale", graph_digest="0" * 40)
        offline = model.decision_scores(graph, mode="private")
        for service in (InferenceService(registry, graph=graph),
                        InferenceService(registry,
                                         graph_loader=lambda _m: graph)):
            assert np.array_equal(service.predict_scores("stale", [3]),
                                  offline[[3]])

    def test_serve_exits_2_at_warm_up(self, tmp_path, model, capsys):
        registry = ModelRegistry(tmp_path / "reg")
        self._publish(registry, model, "stale", graph_digest="0" * 40)
        exit_code = main(["serve", "--registry", str(tmp_path / "reg"),
                          "--model", "stale@latest", "--port", "0"])
        assert exit_code == 2
        assert "0" * 40 in capsys.readouterr().err


class TestHttpApi:
    @pytest.fixture()
    def server(self, service):
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        service.close()

    def _get(self, server, path):
        port = server.server_address[1]
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as resp:
            return resp.status, json.loads(resp.read())

    def _post(self, server, path, payload):
        port = server.server_address[1]
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as resp:
            return resp.status, json.loads(resp.read())

    def test_healthz_models_and_stats(self, server):
        status, health = self._get(server, "/healthz")
        assert (status, health["status"]) == (200, "ok")
        status, models = self._get(server, "/models")
        assert status == 200
        assert models["models"][0]["name"] == "demo"
        assert "epsilon" in models["models"][0]["privacy"]
        status, stats = self._get(server, "/stats")
        assert status == 200 and "batcher" in stats

    def test_predict_end_to_end_matches_offline(self, server, model, graph):
        nodes = [0, 4, 2, 11]
        status, body = self._post(server, "/v1/predict",
                                  {"model": "demo@latest", "nodes": nodes,
                                   "top_k": 2, "proba": True})
        assert status == 200
        offline = model.decision_scores(graph, mode="private")[nodes]
        assert body["labels"] == [int(x) for x in np.argmax(offline, axis=1)]
        # JSON round-trips float64 exactly (repr-based), so even over HTTP
        # the scores stay bitwise.
        assert np.array_equal(np.array(body["scores"]), offline)
        assert len(body["top_k"][0]) == 2
        np.testing.assert_allclose(np.array(body["proba"]).sum(axis=1), 1.0)

    def test_http_error_codes(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/v1/predict", {"model": "ghost", "nodes": [0]})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/v1/predict", {"model": "demo", "nodes": []})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/v1/predict", {"model": "demo",
                                               "nodes": ["zero"]})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(server, "/nope")
        assert excinfo.value.code == 404

    def test_concurrent_http_requests_coalesce_and_agree(self, server, service,
                                                         model, graph):
        offline = np.argmax(model.decision_scores(graph, mode="private"), axis=1)
        results: list = [None] * 12
        errors: list = []

        def query(i):
            try:
                _status, body = self._post(server, "/v1/predict",
                                           {"model": "demo", "nodes": [i]})
                results[i] = body["labels"][0]
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [threading.Thread(target=query, args=(i,)) for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results == [int(offline[i]) for i in range(12)]


@pytest.fixture(scope="module")
def other_model(graph):
    config = GCONConfig(epsilon=0.5, alpha=0.8, encoder_epochs=20,
                        encoder_dim=8, encoder_hidden=16)
    return GCON(config).fit(graph, seed=11)


class TestMultiModelRouting:
    """Two published models: own queues, own histograms, no shared budget."""

    @pytest.fixture()
    def two_model_service(self, tmp_path, model, other_model, graph):
        registry = ModelRegistry(tmp_path / "reg2")
        training = {"dataset": "cora_ml", "scale": 0.06, "graph_seed": 0}
        registry.publish(model, "alpha", inference_mode="private",
                         training=training)
        registry.publish(other_model, "beta", inference_mode="private",
                         training=training)
        return InferenceService(registry, graph=graph)

    def test_both_models_serve_bitwise_offline(self, two_model_service, model,
                                               other_model, graph):
        nodes = [0, 7, 3]
        alpha = two_model_service.predict_scores("alpha", nodes)
        beta = two_model_service.predict_scores("beta", nodes)
        assert np.array_equal(alpha,
                              model.decision_scores(graph, mode="private")[nodes])
        assert np.array_equal(
            beta, other_model.decision_scores(graph, mode="private")[nodes])
        assert two_model_service.batcher.queue_count() == 2

    def test_stats_expose_per_model_latency_histograms(self, two_model_service):
        two_model_service.predict_scores("alpha", [0, 1])
        two_model_service.predict_scores("beta", [2])
        stats = two_model_service.stats()
        labels = sorted(stats["models"])
        assert len(labels) == 2
        assert any(label.startswith("alpha@") for label in labels)
        assert any(label.startswith("beta@") for label in labels)
        for label in labels:
            per_model = stats["models"][label]
            latency = per_model["latency_ms"]
            assert latency["count"] >= 1
            assert {"p50", "p95", "p99"} <= set(latency)
            assert per_model["matmuls"] == 1
            assert {"batch_rows", "queue_depth", "max_batch_size"} <= set(per_model)

    def test_one_models_burst_does_not_consume_the_others_budget(
            self, two_model_service, other_model, graph):
        """The head-of-line bug, pinned at the service level: alpha filling
        its own batch budget leaves beta's queue untouched."""
        alpha_key, alpha_session = two_model_service._session("alpha", None)
        beta_key, _beta_session = two_model_service._session("beta", None)
        budget = two_model_service.batcher.max_batch_size
        for i in range(budget):
            two_model_service.batcher.submit(alpha_key, [i % 5])
        beta_ticket = two_model_service.batcher.submit(beta_key, [3])
        assert two_model_service.batcher.run_once() == budget + 1
        stats = two_model_service.batcher.stats
        assert stats.matmuls == 2  # one stacked matmul per model
        offline = other_model.decision_scores(graph, mode="private")
        assert np.array_equal(beta_ticket.result(1.0), offline[[3]])

    def test_session_eviction_retires_the_models_queue(self, tmp_path, model,
                                                       other_model, graph):
        """An evicted model version must not leak its queue (and, on a
        started router, its dispatch thread): the router retires it and new
        traffic recreates it on demand."""
        registry = ModelRegistry(tmp_path / "reg3")
        training = {"dataset": "cora_ml", "scale": 0.06, "graph_seed": 0}
        registry.publish(model, "alpha", inference_mode="private",
                         training=training)
        registry.publish(other_model, "beta", inference_mode="private",
                         training=training)
        service = InferenceService(registry, graph=graph, max_sessions=1)
        service.predict_scores("alpha", [0])
        assert service.batcher.queue_count() == 1
        service.predict_scores("beta", [0])  # evicts alpha's session
        assert service.batcher.queue_count() == 1  # alpha's queue retired
        # Alpha still serves (session + queue rebuilt transparently).
        offline = model.decision_scores(graph, mode="private")
        assert np.array_equal(service.predict_scores("alpha", [1]),
                              offline[[1]])

    def test_submit_batch_is_the_nonblocking_half(self, two_model_service,
                                                  model, graph):
        ticket, record, mode = two_model_service.submit_batch("alpha", [0, 4])
        assert not ticket.done()
        assert record.name == "alpha"
        assert mode == "private"
        two_model_service.batcher.run_once()
        assert ticket.done()
        offline = model.decision_scores(graph, mode="private")
        assert np.array_equal(ticket.result(0.1), offline[[0, 4]])


class TestAdmissionPrimitives:
    def test_retry_after_header_is_ceiled_whole_seconds(self):
        def shed(retry_after):
            return OverloadedError("full", retry_after=retry_after,
                                   label="m", depth=9, max_queue_depth=8)
        assert shed(0.06).retry_after_header == 1
        assert shed(3.2).retry_after_header == 4
        assert shed(2.0).retry_after_header == 2

    def test_estimate_drain_seconds(self):
        # 100 deep / 10 per flush = 10 flushes; 10ms floor per flush.
        assert estimate_drain_seconds(100, 10, 0.005) == pytest.approx(0.100)
        assert estimate_drain_seconds(100, 10, 0.020) == pytest.approx(0.200)
        # Empty/degenerate queues still produce a positive hint.
        assert estimate_drain_seconds(0, 10, 0.0) > 0
        assert estimate_drain_seconds(5, 0, 0.0) > 0

    @settings(max_examples=200, deadline=None)
    @given(depth=st.integers(0, 100_000), size=st.integers(1, 4096),
           latency=st.floats(0.0, 1.0))
    def test_drain_hint_is_monotone_and_the_header_never_undercuts_it(
            self, depth, size, latency):
        """A deeper queue never gets a shorter hint, a larger row budget
        never a longer one, and the whole-second ``Retry-After`` never
        promises a drain sooner than the estimate."""
        hint = estimate_drain_seconds(depth, size, latency)
        assert hint >= 0.010
        assert estimate_drain_seconds(depth + 1, size, latency) >= hint
        assert estimate_drain_seconds(depth, size + 1, latency) <= hint
        header = OverloadedError("full", retry_after=hint, label="m",
                                 depth=depth, max_queue_depth=depth
                                 ).retry_after_header
        assert isinstance(header, int) and header >= max(1.0, hint)


class TestAdmissionControl:
    def test_shed_happens_before_the_queue(self, registry, graph):
        """A shed request costs a counter bump, never a batcher ticket."""
        service = InferenceService(registry, graph=graph,
                                   max_queue_depth=0)
        with pytest.raises(OverloadedError) as excinfo:
            service.predict_batch("demo", [0, 1])
        error = excinfo.value
        assert error.retry_after > 0
        assert error.max_queue_depth == 0
        assert service.batcher.stats.requests == 0   # nothing was enqueued
        admission = service.stats()["admission"]
        assert admission["max_queue_depth"] == 0
        assert admission["shed_total"] == 1
        assert admission["shed_per_model"] == {"demo@latest": 1} or \
            sum(admission["shed_per_model"].values()) == 1

    def test_retry_hint_drains_under_the_fixed_limits(self, registry, graph):
        service = InferenceService(registry, graph=graph, max_batch_size=4,
                                   max_latency=0.05, max_queue_depth=0)
        with pytest.raises(OverloadedError) as excinfo:
            service.predict_batch("demo", [0])
        assert excinfo.value.retry_after == estimate_drain_seconds(0, 4, 0.05)

    def test_no_cap_means_no_shedding(self, registry, graph, model):
        service = InferenceService(registry, graph=graph,
                                   max_queue_depth=None)
        offline = model.decision_scores(graph, mode="private")
        served = service.predict_scores("demo", [0, 1, 2])
        assert np.array_equal(served, offline[[0, 1, 2]])
        assert service.stats()["admission"]["shed_total"] == 0

    def test_http_429_with_retry_after(self, registry, graph):
        """Overload is answered with 429 + Retry-After on the wire."""
        service = InferenceService(registry, graph=graph, max_queue_depth=0)
        server = serve_http(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/predict",
                data=json.dumps({"model": "demo", "nodes": [0]}).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            response = excinfo.value
            assert response.code == 429
            assert int(response.headers["Retry-After"]) >= 1
            body = json.loads(response.read())
            assert body["retry_after_seconds"] > 0
            assert "error" in body
            # The shed shows up in /stats over the same wire.
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/stats", timeout=10.0) as reply:
                stats = json.loads(reply.read())
            assert stats["admission"]["shed_total"] >= 1
            assert "slo" not in stats
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestFixedBatchLimits:
    def test_stats_report_the_limits_every_queue_runs(self, registry, graph):
        service = InferenceService(registry, graph=graph, max_batch_size=16,
                                   max_latency=0.003)
        service.predict_scores("demo", [0, 1])
        stats = service.stats()
        assert (stats["max_batch_size"], stats["max_latency_seconds"]) \
            == (16, 0.003)
        (entry,) = stats["models"].values()
        assert (entry["max_batch_size"], entry["max_latency_seconds"]) \
            == (16, 0.003)
        assert "slo" not in stats


class TestFusedResponseRenderer:
    """The zero-copy body renderer must be byte-identical to the canonical
    ``json.dumps(format_prediction(...), sort_keys=True)`` encoding."""

    @pytest.mark.parametrize("proba", [False, True])
    @pytest.mark.parametrize("top_k", [None, 2])
    def test_bytes_match_canonical_json(self, registry, graph, proba, top_k):
        service = InferenceService(registry, graph=graph)
        scores, record, mode = service.predict_batch("demo", [0, 1, 7])
        request = PredictRequest(ref="demo", nodes=[0, 1, 7], mode=None,
                                 top_k=top_k, proba=proba)
        canonical = (json.dumps(
            format_prediction(request, scores, record, mode),
            sort_keys=True) + "\n").encode("utf-8")
        fused = format_prediction_body(request, scores, record, mode)
        assert fused == canonical

    def test_awkward_floats_roundtrip(self, registry, graph):
        service = InferenceService(registry, graph=graph)
        _, record, mode = service.predict_batch("demo", [0])
        scores = np.array([[1e-17, -0.0], [1234567890.123456, 3.14]])
        request = PredictRequest(ref="demo", nodes=[4, 5], mode=None,
                                 top_k=None, proba=False)
        canonical = (json.dumps(
            format_prediction(request, scores, record, mode),
            sort_keys=True) + "\n").encode("utf-8")
        assert format_prediction_body(request, scores, record, mode) == canonical
