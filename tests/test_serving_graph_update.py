"""Tests for live graph mutation end to end in the serving layer.

The two load-bearing claims of the versioned-graph refactor:

* after an epoch advance, served scores are **bitwise identical** to
  offline :meth:`GCON.decision_scores` on the *new* graph, while requests
  pinned to an older epoch (explicitly, or in flight when the update
  landed) keep scoring against *their* epoch — no torn reads;
* the control surfaces (``POST /v1/graph/update``, ``GET /v1/graph/status``,
  ``/metrics`` gauges) tell the truth about which epoch the server serves.
"""

from __future__ import annotations

import json
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import GCONConfig
from repro.core.model import GCON
from repro.exceptions import ConfigurationError, GraphDataError
from repro.graphs.datasets import load_dataset
from repro.serving import (
    InferenceService,
    ModelRegistry,
    graphstore,
    parse_graph_update_payload,
    serve_http,
)
from repro.serving.graphstore import MAX_SAMPLED_EDGES


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


@pytest.fixture()
def server(service):
    server = serve_http(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()


@pytest.fixture()
def sampled(monkeypatch):
    """Counts the store's calls to ``sample_absent_edge``; past a handful it
    raises, so an unbounded sampling loop fails the test instead of running
    for hours."""
    calls = []
    sample = graphstore.sample_absent_edge

    def counting(graph, rng):
        calls.append(1)
        if len(calls) > 5:
            raise RuntimeError("sampling ran past the update's limit")
        return sample(graph, rng)

    monkeypatch.setattr(graphstore, "sample_absent_edge", counting)
    return calls


def _http(server, path, body=None, timeout=30.0):
    """One JSON round-trip against the test server; 4xx/5xx bodies are
    decoded too so tests can assert on the error shapes."""
    url = f"http://127.0.0.1:{server.server_address[1]}{path}"
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if body else {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestServiceGraphUpdate:
    def test_update_advances_epoch_and_serves_the_new_graph_bitwise(
            self, service, model, graph):
        nodes = list(range(12))
        before = service.predict_scores("demo", nodes)
        assert np.array_equal(before,
                              model.decision_scores(graph)[nodes])

        result = service.apply_graph_update(sample_insert=2, sample_delete=1,
                                            seed=5)
        assert result["previous_epoch"] == 0
        assert result["epoch"] == 1
        assert result["inserted"] == 2
        assert result["deleted"] == 1
        assert result["sessions_refreshed"] == 1
        assert set(result["timings_ns"]) == {"apply", "repropagate"}

        store = service._resolve_store(None)
        epoch, new_graph = store.current()
        assert epoch == 1
        offline_new = model.decision_scores(new_graph)
        after = service.predict_scores("demo", nodes)
        assert np.array_equal(after, offline_new[nodes])

        stats = service.stats()["graph"]
        assert stats["updates"] == 1
        assert stats["sessions_rebuilt_incremental"] == 1
        assert stats["sessions_rebuilt_full"] == 0
        assert stats["rows_recomputed"] + stats["rows_reused"] \
            == graph.num_nodes
        assert stats["epochs"] == {"default": 1}

    def test_pinned_epoch_queries_keep_serving_their_graph(self, service,
                                                           model, graph):
        nodes = [0, 5, 9]
        old_offline = model.decision_scores(graph)
        service.predict_scores("demo", nodes)  # warm epoch 0
        service.apply_graph_update(sample_insert=2, seed=3)

        scores, _record, _mode = service.predict_batch("demo", nodes,
                                                       epoch=0)
        assert np.array_equal(scores, old_offline[nodes])
        # The default (unpinned) path serves the new epoch.
        _epoch, new_graph = service._resolve_store(None).current()
        fresh = service.predict_scores("demo", nodes)
        assert np.array_equal(fresh, model.decision_scores(new_graph)[nodes])

    def test_in_flight_ticket_scores_against_its_pinned_epoch(self, service,
                                                              model, graph):
        """The no-torn-reads proof: a request submitted *before* an epoch
        advance executes *after* it and still returns the old epoch's
        scores, bit for bit."""
        nodes = [1, 4, 7, 30]
        ticket, _record, _mode = service.submit_batch("demo", nodes)
        service.apply_graph_update(sample_insert=1, sample_delete=1, seed=11)
        executed = service.batcher.run_once()
        assert executed >= 1
        scores = ticket.result(5.0)
        assert np.array_equal(scores, model.decision_scores(graph)[nodes])
        # ... while a ticket submitted after the advance sees the new epoch.
        _epoch, new_graph = service._resolve_store(None).current()
        later, _record, _mode = service.submit_batch("demo", nodes)
        service.batcher.run_once()
        assert np.array_equal(later.result(5.0),
                              model.decision_scores(new_graph)[nodes])

    def test_explicit_edges_and_atomic_rejection(self, service, graph):
        from repro.graphs.perturbations import (
            sample_absent_edge,
            sample_present_edge,
        )
        u, v = sample_absent_edge(graph, rng=2)
        result = service.apply_graph_update(inserts=[(u, v)])
        assert result["epoch"] == 1
        assert sorted(result["endpoints"]) == sorted((u, v))

        # A bad batch (phantom delete) leaves the epoch and counters alone.
        a, b = sample_absent_edge(service._resolve_store(None).current()[1],
                                  rng=4)
        with pytest.raises(GraphDataError):
            service.apply_graph_update(deletes=[(a, b)])
        assert service.graph_epochs() == {"default": 1}
        assert service.stats()["graph"]["updates"] == 1
        present = sample_present_edge(graph, rng=2)
        with pytest.raises(GraphDataError, match="both insert and delete"):
            service.apply_graph_update(inserts=[present], deletes=[present])

    def test_first_query_after_update_full_rebuilds(self, service):
        """With no cached base session, the new epoch is built from scratch
        (counted as a full rebuild, not an incremental one)."""
        service.apply_graph_update(sample_insert=1, seed=0)
        service.predict_scores("demo", [0, 1])
        stats = service.stats()["graph"]
        assert stats["sessions_rebuilt_full"] == 1
        assert stats["sessions_rebuilt_incremental"] == 0

    def test_update_without_any_graph_is_rejected(self, registry):
        bare = InferenceService(registry)
        with pytest.raises(ConfigurationError, match="no serving graph"):
            bare.apply_graph_update(sample_insert=1)

    def test_unknown_graph_key_is_rejected(self, service):
        with pytest.raises(ConfigurationError, match="unknown graph"):
            service.apply_graph_update(sample_insert=1, graph="nope")

    def test_sampling_past_the_limit_is_rejected_before_sampling(
            self, service, sampled):
        with pytest.raises(ConfigurationError,
                           match=f"at most {MAX_SAMPLED_EDGES} sampled"):
            service.apply_graph_update(sample_insert=10 ** 9)
        with pytest.raises(ConfigurationError,
                           match=f"at most {MAX_SAMPLED_EDGES} sampled"):
            service.apply_graph_update(sample_insert=MAX_SAMPLED_EDGES,
                                       sample_delete=1)
        assert sampled == []
        assert service.graph_epochs() == {"default": 0}
        result = service.apply_graph_update(sample_insert=2, seed=3)
        assert result["epoch"] == 1 and result["inserted"] == 2
        assert len(sampled) == 2

    def test_graph_status_and_health_expose_epochs(self, service, graph):
        service.predict_scores("demo", [0])
        service.apply_graph_update(sample_insert=1, seed=2)
        status = service.graph_status()
        assert status["graphs"]["default"]["epoch"] == 1
        assert status["graphs"]["default"]["nodes"] == graph.num_nodes
        assert status["stats"]["updates"] == 1
        assert service.health()["graph_epochs"] == {"default": 1}

    def test_session_labels_carry_the_epoch(self, service):
        service.predict_scores("demo", [0])
        service.apply_graph_update(sample_insert=1, seed=7)
        service.predict_scores("demo", [0])
        labels = set(service.stats()["models"])
        assert any(label.endswith(":g0:private") for label in labels)
        assert any(label.endswith(":g1:private") for label in labels)


    def test_update_hashes_the_new_adjacency_once(self, service, monkeypatch):
        """The store hashes each epoch's adjacency once; both session
        rebuilds key the propagation cache by that digest instead of
        hashing the same adjacency again."""
        from repro.core import propagation
        from repro.serving import graphstore

        service.predict_scores("demo", [0], mode="private")
        service.predict_scores("demo", [0], mode="public")
        calls = []

        def counting(original):
            def fingerprint(adjacency):
                calls.append(adjacency.shape)
                return original(adjacency)
            return fingerprint

        for module in (propagation, graphstore):
            monkeypatch.setattr(module, "graph_fingerprint",
                                counting(module.graph_fingerprint))
        result = service.apply_graph_update(sample_insert=2, sample_delete=1,
                                            seed=5)
        assert result["sessions_refreshed"] == 2
        assert len(calls) == 1
        # One transition entry per epoch, as when the cache hashed each
        # adjacency itself.
        assert service.propagation.info()["transition"]["entries"] == 2

    def test_retired_sessions_leave_no_labels_behind(self, registry, graph):
        """Every update mints two session labels; once the session LRU
        evicts them, the metrics and ``/stats`` drop them too."""
        max_sessions = 4
        service = InferenceService(registry, graph=graph,
                                   max_sessions=max_sessions)
        for seed in range(3 * max_sessions):
            service.predict_scores("demo", [0, 1], mode="private")
            service.predict_scores("demo", [0, 1], mode="public")
            service.apply_graph_update(sample_insert=1, seed=seed)
        labels = service.metrics.labels()
        assert len(labels) <= max_sessions
        assert set(service.stats()["models"]) <= set(labels)
        # The live sessions' labels are still there.
        assert any(label.endswith(f":g{3 * max_sessions - 1}:public")
                   for label in labels)


class TestParsePayload:
    def test_valid_payload_maps_to_kwargs(self):
        kwargs = parse_graph_update_payload(
            {"insert": [[0, 1]], "delete": [], "sample_delete": 2,
             "seed": 9, "graph": "default"})
        assert kwargs == {"inserts": [[0, 1]], "deletes": [],
                          "sample_insert": 0, "sample_delete": 2,
                          "seed": 9, "graph": "default"}

    @pytest.mark.parametrize("payload", [
        [],
        {"insert": "0:1"},
        {"sample_insert": -1},
        {"sample_insert": True},
        {"sample_insert": 1, "seed": "x"},
        {"sample_insert": 1, "graph": 3},
        {},
        {"insert": [], "delete": []},
    ])
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(ConfigurationError):
            parse_graph_update_payload(payload)


# Any JSON value a client could send, kept small.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=2),
    max_leaves=6)
# Edge lists that often name real node pairs of the 179-node test graph.
_EDGES = st.lists(st.lists(st.integers(-2, 181) | _JSON, max_size=3),
                  max_size=3)
_COUNT = st.integers(-1, 3) | st.integers(0, 2) | st.floats(-1.0, 3.0)


class TestAnyPayloadAppliesOrIsRefused:
    """Any JSON either applies (epoch + 1) or is refused with a
    ``ConfigurationError``/``GraphDataError`` — the HTTP layer's 400 —
    leaving the epoch and digest as they were.  Nothing else escapes."""

    @pytest.fixture(scope="class")
    def empty_registry(self, tmp_path_factory):
        return ModelRegistry(tmp_path_factory.mktemp("reg"))

    @settings(max_examples=200, deadline=None)
    @example(payload={"sample_insert": 1, "seed": -1})
    @example(payload={"sample_delete": 2, "seed": -(2 ** 70)})
    @example(payload={"sample_insert": 1, "seed": 2 ** 200})
    @given(payload=st.fixed_dictionaries({}, optional={
        "insert": _EDGES | _JSON, "delete": _EDGES | _JSON,
        "sample_insert": _COUNT, "sample_delete": _COUNT,
        "seed": st.integers(-3, 3) | st.integers() | _JSON,
        "graph": st.sampled_from([None, "default", ""]) | st.just("nope")
        | _JSON}))
    def test_payload_applies_or_is_refused(self, empty_registry, graph,
                                           payload):
        service = InferenceService(empty_registry, graph=graph)
        before = service.graph_status()["graphs"]["default"]
        try:
            service.apply_graph_update(**parse_graph_update_payload(payload))
        except (ConfigurationError, GraphDataError):
            after = service.graph_status()["graphs"]["default"]
            assert (after["epoch"], after["digest"]) \
                == (before["epoch"], before["digest"])
        else:
            assert service.graph_epochs() == {"default": before["epoch"] + 1}


class TestHttpSurface:
    def test_update_and_status_round_trip(self, server, service, model):
        status, body = _http(server, "/v1/predict",
                             {"model": "demo", "nodes": [0, 3]})
        assert status == 200

        status, body = _http(server, "/v1/graph/update",
                             {"sample_insert": 2, "sample_delete": 1,
                              "seed": 5})
        assert status == 200
        assert body["epoch"] == 1
        assert body["previous_epoch"] == 0
        assert body["sessions_refreshed"] == 1
        assert set(body["timings_ms"]) == {"apply", "repropagate"}
        assert "timings_ns" not in body

        status, body = _http(server, "/v1/graph/status")
        assert status == 200
        assert body["graphs"]["default"]["epoch"] == 1
        assert body["stats"]["updates"] == 1

        # The served scores on the new epoch are still bitwise offline.
        _epoch, new_graph = service._resolve_store(None).current()
        status, body = _http(server, "/v1/predict",
                             {"model": "demo", "nodes": [0, 3]})
        assert status == 200
        offline = model.decision_scores(new_graph)[[0, 3]]
        assert np.array_equal(np.asarray(body["scores"]), offline)

    @pytest.mark.parametrize("payload,fragment", [
        ({}, "must name edges"),
        ({"insert": "0:1"}, "list of"),
        ({"sample_insert": -2}, "non-negative"),
        ({"sample_insert": 1, "graph": "nope"}, "unknown graph"),
        ({"insert": [[4, 4]]}, "self-loop"),
        ({"insert": [[0, 1000000]]}, "outside"),
        ({"insert": [[0, 2 ** 70]]}, "outside"),
        ([{"sample_insert": 1}], "must be a JSON object"),
        ({"sample_insert": 1.5}, "non-negative integer"),
        ({"sample_insert": 1, "seed": 1.5}, "'seed' must be"),
        ({"sample_insert": 1, "seed": True}, "'seed' must be"),
        ({"sample_insert": 1, "graph": 7}, "string store key"),
    ])
    def test_bad_updates_are_400(self, server, payload, fragment):
        status, body = _http(server, "/v1/graph/update", payload)
        assert status == 400
        assert fragment in body["error"]

    def test_negative_seed_is_400_and_the_epoch_stays(self, server,
                                                      service):
        status, body = _http(server, "/v1/graph/update",
                             {"sample_insert": 1, "seed": -1})
        assert status == 400
        assert "'seed' must be a non-negative integer" in body["error"]
        assert service.graph_epochs() == {"default": 0}

    def test_oversized_sampling_is_400_and_the_next_update_applies(
            self, server, service, sampled):
        status, body = _http(server, "/v1/graph/update",
                             {"sample_insert": 1000000000})
        assert status == 400
        assert f"at most {MAX_SAMPLED_EDGES} sampled edges" in body["error"]
        assert sampled == []
        assert service.graph_epochs() == {"default": 0}
        status, body = _http(server, "/v1/graph/update",
                             {"sample_insert": 2, "seed": 3})
        assert status == 200
        assert body["epoch"] == 1

    def test_second_concurrent_update_is_shed_with_429(self, server):
        class _Stuck:
            def done(self):
                return False

        server._graph_update = _Stuck()
        try:
            status, body = _http(server, "/v1/graph/update",
                                 {"sample_insert": 1})
        finally:
            server._graph_update = None
        assert status == 429
        assert "already in flight" in body["error"]

    def test_updates_run_on_one_long_lived_thread(self, server, service,
                                                  monkeypatch):
        threads = []
        apply = service.apply_graph_update

        def recording(**kwargs):
            threads.append(threading.current_thread())
            return apply(**kwargs)

        monkeypatch.setattr(service, "apply_graph_update", recording)
        status, _body = _http(server, "/v1/graph/update",
                              {"sample_insert": 1, "seed": 0})
        assert status == 200
        baseline = threading.active_count()
        for seed in range(1, 6):
            status, body = _http(server, "/v1/graph/update",
                                 {"sample_insert": 1, "seed": seed})
            assert status == 200
            assert body["epoch"] == seed + 1
            assert threading.active_count() <= baseline
        assert len(threads) == 6
        assert all(thread is threads[0] for thread in threads)
        assert threads[0] is not threading.main_thread()
        assert threads[0].daemon

    def test_a_failed_update_leaves_the_update_thread_serving(
            self, server, service, monkeypatch):
        threads = []
        apply = service.apply_graph_update

        def flaky(**kwargs):
            threads.append(threading.current_thread())
            if len(threads) == 1:
                raise RuntimeError("injected failure")
            return apply(**kwargs)

        monkeypatch.setattr(service, "apply_graph_update", flaky)
        status, body = _http(server, "/v1/graph/update", {"sample_insert": 1})
        assert status == 500
        assert "injected failure" in body["error"]
        status, body = _http(server, "/v1/graph/update",
                             {"sample_insert": 1, "seed": 1})
        assert status == 200
        assert body["epoch"] == 1
        assert threads[0] is threads[1]

    def test_server_close_stops_the_update_thread(self, service, monkeypatch):
        threads = []
        apply = service.apply_graph_update

        def recording(**kwargs):
            threads.append(threading.current_thread())
            return apply(**kwargs)

        monkeypatch.setattr(service, "apply_graph_update", recording)
        before = set(threading.enumerate())
        server = serve_http(service, port=0)
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        try:
            status, _body = _http(server, "/v1/predict",
                                  {"model": "demo", "nodes": [0]})
            assert status == 200
            # No update yet: the server has started no update thread.
            assert not [thread for thread in set(threading.enumerate()) - before
                        if thread.name == "graph-update"]
            status, _body = _http(server, "/v1/graph/update",
                                  {"sample_insert": 1})
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        threads[0].join(timeout=10.0)
        assert not threads[0].is_alive()

    def test_metrics_expose_epoch_and_cache_gauges(self, server, service):
        service.predict_scores("demo", [0])
        service.apply_graph_update(sample_insert=1, seed=1)
        port = server.server_address[1]
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics",
                                    timeout=10.0) as response:
            text = response.read().decode()
        assert 'repro_graph_epoch{graph="default"} 1' in text
        assert "repro_graph_updates_total 1" in text
        assert 'repro_graph_session_rebuilds_total{strategy="incremental"}' \
            in text
        assert "repro_graph_rows_recomputed_total" in text
        assert "repro_graph_rows_reused_total" in text
        assert "repro_propagation_cache_hits_total" in text
        assert "repro_propagation_cache_entries" in text


class TestGraphUpdateCommand:
    """``repro graph update`` against one server: what it sends, and how
    each refusal reads."""

    @staticmethod
    def _url(server) -> str:
        return f"http://127.0.0.1:{server.server_address[1]}"

    def test_oversized_sampling_is_refused_and_the_epoch_stays(
            self, server, service, sampled, capsys):
        from repro.cli.main import main

        url = self._url(server)
        assert main(["graph", "update", "--server", url,
                     "--sample-insert", "600", "--sample-delete", "401"]) == 1
        assert capsys.readouterr().err.strip() == (
            f"graph update failed (400): at most {MAX_SAMPLED_EDGES} "
            f"sampled edges per update, got 600 inserts + 401 deletes")
        assert sampled == []
        assert service.graph_epochs() == {"default": 0}
        assert main(["graph", "update", "--server", url,
                     "--sample-insert", "2", "--seed", "3"]) == 0
        assert capsys.readouterr().out.startswith("graph default: epoch 0 -> 1")
        assert len(sampled) == 2

    def test_an_empty_update_is_refused_before_any_request(self, capsys):
        from repro.cli.main import main

        assert main(["graph", "update", "--server", "http://127.0.0.1:9"]) == 2
        assert "nothing to apply" in capsys.readouterr().err

    def test_a_malformed_edge_is_refused_before_any_request(self, capsys):
        from repro.cli.main import main

        assert main(["graph", "update", "--server", "http://127.0.0.1:9",
                     "--insert", "1:x"]) == 2
        assert capsys.readouterr().err.startswith("graph update failed: ")

    def test_an_unreachable_server_is_named(self, capsys):
        from repro.cli.main import main

        with socket.socket() as probe:  # a port nothing listens on
            probe.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{probe.getsockname()[1]}"
        assert main(["graph", "update", "--server", url,
                     "--sample-insert", "1"]) == 1
        assert f"graph update failed: {url} unreachable" \
            in capsys.readouterr().err
