"""Tests for the content-addressed model registry and its hot-reload
watcher."""

from __future__ import annotations

import http.client
import json
import threading

import numpy as np
import pytest

from repro.core.config import GCONConfig
from repro.core.model import GCON
from repro.core.persistence import release_arrays, release_digest
from repro.exceptions import ConfigurationError
from repro.graphs.datasets import load_dataset
from repro.serving import (
    InferenceService,
    ModelRegistry,
    RegistryWatcher,
    parse_model_ref,
    serve_http,
    watch_models,
)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora_ml", scale=0.06, seed=0)


@pytest.fixture(scope="module")
def model(graph):
    config = GCONConfig(epsilon=2.0, alpha=0.8, encoder_epochs=20,
                        encoder_dim=8, encoder_hidden=16)
    return GCON(config).fit(graph, seed=7)


@pytest.fixture(scope="module")
def other_model(graph):
    config = GCONConfig(epsilon=0.5, alpha=0.8, encoder_epochs=20,
                        encoder_dim=8, encoder_hidden=16)
    return GCON(config).fit(graph, seed=7)


class TestParseModelRef:
    def test_bare_name_means_latest(self):
        assert parse_model_ref("demo") == ("demo", "latest")
        assert parse_model_ref("demo@latest") == ("demo", "latest")

    def test_digest_prefix(self):
        assert parse_model_ref("demo@AB12") == ("demo", "ab12")

    def test_invalid_refs_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_model_ref("")
        with pytest.raises(ConfigurationError):
            parse_model_ref("@abc")
        with pytest.raises(ConfigurationError):
            parse_model_ref("demo@not-hex!")


class TestPublishResolve:
    def test_publish_and_resolve_latest(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        record = registry.publish(model, "demo")
        assert record.name == "demo"
        resolved = registry.resolve("demo@latest")
        assert resolved.digest == record.digest
        assert registry.resolve("demo").digest == record.digest

    def test_digest_matches_release_content(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        record = registry.publish(model, "demo")
        assert record.digest == release_digest(release_arrays(model))

    def test_publish_is_idempotent(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        first = registry.publish(model, "demo")
        again = registry.publish(model, "demo")
        assert again.digest == first.digest
        assert len(registry.list("demo")) == 1

    def test_two_releases_coexist_and_latest_advances(self, tmp_path, model,
                                                      other_model):
        registry = ModelRegistry(tmp_path / "reg")
        first = registry.publish(model, "demo")
        second = registry.publish(other_model, "demo")
        assert first.digest != second.digest
        assert len(registry.list("demo")) == 2
        assert registry.resolve("demo@latest").digest == second.digest
        # The first version stays addressable by digest prefix.
        assert registry.resolve(f"demo@{first.digest[:10]}").digest == first.digest

    def test_republishing_an_old_version_is_an_explicit_rollback(self, tmp_path,
                                                                 model,
                                                                 other_model):
        registry = ModelRegistry(tmp_path / "reg")
        first = registry.publish(model, "demo")
        second = registry.publish(other_model, "demo")
        assert registry.resolve("demo@latest").digest == second.digest
        # Re-publishing v1 re-points latest at it (documented rollback path)
        # without rewriting the stored bundle.
        archive_mtime = first.archive_path.stat().st_mtime_ns
        registry.publish(model, "demo")
        assert registry.resolve("demo@latest").digest == first.digest
        assert first.archive_path.stat().st_mtime_ns == archive_mtime

    def test_prefix_resolution_errors(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(model, "demo")
        with pytest.raises(ConfigurationError, match="no version"):
            registry.resolve("demo@ffffffff")
        with pytest.raises(ConfigurationError, match="not in the registry"):
            registry.resolve("ghost@latest")

    def test_manifest_records_privacy_stamp(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        record = registry.publish(
            model, "demo", inference_mode="public",
            training={"dataset": "cora_ml", "sweep_context": "abc123"})
        privacy = record.manifest["privacy"]
        assert privacy["epsilon"] == model.perturbation_.epsilon
        assert privacy["delta"] == model.perturbation_.delta
        assert "objective perturbation" in privacy["mechanism"]
        assert record.manifest["inference"]["mode"] == "public"
        assert record.manifest["inference"]["propagation_steps"] == [2]
        assert record.manifest["training"]["sweep_context"] == "abc123"

    def test_invalid_names_and_modes_rejected(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(ConfigurationError, match="invalid model name"):
            registry.publish(model, "../evil")
        with pytest.raises(ConfigurationError, match="inference_mode"):
            registry.publish(model, "demo", inference_mode="telepathic")

    def test_unfitted_model_rejected(self, tmp_path):
        from repro.exceptions import NotFittedError

        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(NotFittedError):
            registry.publish(GCON(GCONConfig()), "demo")


class TestLoadVerify:
    def test_load_round_trips_theta_and_predictions(self, tmp_path, model, graph):
        registry = ModelRegistry(tmp_path / "reg")
        record = registry.publish(model, "demo")
        loaded, loaded_record = registry.load("demo@latest")
        assert loaded_record.digest == record.digest
        assert np.array_equal(loaded.theta_, model.theta_)
        assert np.array_equal(loaded.decision_scores(graph, mode="public"),
                              model.decision_scores(graph, mode="public"))

    def test_verify_accepts_intact_archive(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        record = registry.publish(model, "demo")
        assert registry.verify("demo@latest").digest == record.digest

    def test_verify_detects_tampering(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        record = registry.publish(model, "demo")
        # Flip the stored theta: same shapes, different bytes.
        with np.load(record.archive_path, allow_pickle=False) as archive:
            arrays = {key: archive[key].copy() for key in archive.files}
        arrays["theta"] = arrays["theta"] + 1e-9
        np.savez(record.archive_path, **arrays)
        with pytest.raises(ConfigurationError, match="integrity check failed"):
            registry.verify("demo@latest")

    def test_verify_rejects_truncated_archive(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        record = registry.publish(model, "demo")
        data = record.archive_path.read_bytes()
        record.archive_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ConfigurationError, match="integrity check failed"):
            registry.verify("demo@latest")

    def test_torn_publish_is_invisible(self, tmp_path, model):
        """A version directory without a manifest (crash between archive and
        manifest write) must not resolve."""
        registry = ModelRegistry(tmp_path / "reg")
        record = registry.publish(model, "demo")
        torn = registry.version_dir("demo", "f" * 64)
        torn.mkdir(parents=True)
        (torn / "model.npz").write_bytes(record.archive_path.read_bytes())
        assert len(registry.list("demo")) == 1
        with pytest.raises(ConfigurationError, match="no version"):
            registry.resolve("demo@" + "f" * 8)


class TestMmapBundles:
    @pytest.fixture()
    def registry(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(model, "demo", inference_mode="private",
                         training={"dataset": "cora_ml"})
        return registry

    def test_mapped_load_is_bitwise_equal_to_eager(self, registry, graph):
        eager, _ = registry.load("demo", mmap=False)
        mapped, _ = registry.load("demo", mmap=True)
        assert isinstance(mapped.theta_, np.memmap)
        assert not isinstance(eager.theta_, np.memmap)
        assert np.array_equal(np.asarray(mapped.theta_), eager.theta_)
        for mode in ("private", "public"):
            assert np.array_equal(mapped.decision_scores(graph, mode=mode),
                                  eager.decision_scores(graph, mode=mode))

    def test_mapped_service_serves_bitwise_offline_scores(self, registry,
                                                          graph, model):
        offline = model.decision_scores(graph, mode="private")
        nodes = [0, 5, 9, 3]
        mapped = InferenceService(registry, graph=graph, mmap_bundles=True)
        eager = InferenceService(registry, graph=graph, mmap_bundles=False)
        assert np.array_equal(mapped.predict_scores("demo", nodes),
                              offline[nodes])
        assert np.array_equal(eager.predict_scores("demo", nodes),
                              offline[nodes])


class TestListing:
    def test_names_and_list_cover_all_committed_versions(self, tmp_path, model,
                                                         other_model):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(model, "alpha")
        registry.publish(other_model, "beta")
        assert registry.names() == ["alpha", "beta"]
        records = registry.list()
        assert {record.name for record in records} == {"alpha", "beta"}
        for record in records:
            assert json.loads((record.path / "manifest.json").read_text())[
                "digest"] == record.digest

    @staticmethod
    def _write_version(registry, name, digest, created_unix=None):
        version_dir = registry.version_dir(name, digest)
        version_dir.mkdir(parents=True)
        manifest = {
            "format": 1, "name": name, "digest": digest,
            "privacy": {"epsilon": 1.0, "delta": 1e-5, "mechanism": "test"},
            "inference": {"mode": "private"},
            "training": {},
        }
        if created_unix is not None:
            manifest["created_unix"] = created_unix
        (version_dir / "manifest.json").write_text(json.dumps(manifest))

    def test_list_orders_by_publish_time_not_digest_hex(self, tmp_path):
        """Publish history, not hash order: a later publish whose digest
        sorts lexicographically *first* must still come last."""
        registry = ModelRegistry(tmp_path / "reg")
        self._write_version(registry, "demo", "f" * 64, created_unix=100.0)
        self._write_version(registry, "demo", "0" * 64, created_unix=200.0)
        self._write_version(registry, "demo", "a" * 64, created_unix=150.0)
        digests = [record.digest for record in registry.list("demo")]
        assert digests == ["f" * 64, "a" * 64, "0" * 64]

    def test_list_breaks_publish_time_ties_by_digest(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        self._write_version(registry, "demo", "b" * 64, created_unix=100.0)
        self._write_version(registry, "demo", "a" * 64, created_unix=100.0)
        # And a pre-stamp manifest (no created_unix) sorts before both.
        self._write_version(registry, "demo", "c" * 64)
        digests = [record.digest for record in registry.list("demo")]
        assert digests == ["c" * 64, "a" * 64, "b" * 64]

    def test_names_skips_name_dirs_without_a_committed_version(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        self._write_version(registry, "good", "a" * 64, created_unix=1.0)
        # A torn publish: version dir exists, manifest never landed.
        torn = registry.version_dir("torn", "b" * 64)
        torn.mkdir(parents=True)
        (torn / "model.npz").write_bytes(b"partial")
        # An empty name dir (all versions garbage-collected by hand).
        (registry.models_dir / "empty").mkdir(parents=True)
        assert registry.names() == ["good"]
        assert [record.name for record in registry.list()] == ["good"]


class TestAmbiguousDigestPrefix:
    """A prefix matching two committed versions must raise, never pick one."""

    @staticmethod
    def _write_version(registry, name, digest):
        version_dir = registry.version_dir(name, digest)
        version_dir.mkdir(parents=True)
        (version_dir / "manifest.json").write_text(json.dumps({
            "format": 1, "name": name, "digest": digest,
            "privacy": {"epsilon": 1.0, "delta": 1e-5, "mechanism": "test"},
            "inference": {"mode": "private"},
            "training": {},
        }))

    def test_shared_prefix_raises_clear_error(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        self._write_version(registry, "demo", "deadbeef" + "0" * 56)
        self._write_version(registry, "demo", "deadbeef" + "1" * 56)
        with pytest.raises(ConfigurationError,
                           match="ambiguous.*use more digits"):
            registry.resolve("demo@deadbeef")
        # One more digit disambiguates; the right version comes back.
        record = registry.resolve("demo@deadbeef0")
        assert record.digest == "deadbeef" + "0" * 56
        record = registry.resolve("demo@deadbeef1")
        assert record.digest == "deadbeef" + "1" * 56


class TestRegistryWatcher:
    @pytest.fixture()
    def setup(self, tmp_path, model, graph):
        registry = ModelRegistry(tmp_path / "reg")
        training = {"dataset": "cora_ml", "scale": 0.06, "graph_seed": 0}
        record = registry.publish(model, "demo", inference_mode="private",
                                  training=training)
        service = InferenceService(registry, graph=graph)
        service.prewarm("demo@latest")
        yield registry, service, record, training
        service.close()

    def test_primed_watcher_reports_no_flip_at_startup(self, setup):
        registry, service, _record, _training = setup
        watcher = RegistryWatcher(registry, service, ["demo"])
        assert watcher.poll_once() == []
        assert watcher.flips == 0

    def test_flip_prewarms_new_and_retires_old(self, setup, other_model,
                                               graph):
        registry, service, record, training = setup
        watcher = RegistryWatcher(registry, service, ["demo"])
        new_record = registry.publish(other_model, "demo",
                                      inference_mode="private",
                                      training=training)
        flips = watcher.poll_once()
        assert flips == [("demo", record.digest, new_record.digest)]
        assert watcher.flips == 1
        loaded = service.loaded_digests()
        assert new_record.digest in loaded
        assert record.digest not in loaded  # old sessions retired
        # @latest traffic now resolves to the new version, bitwise equal to
        # its offline reference — the serving layers never change numbers.
        nodes = [0, 5, 9]
        served = service.predict_scores("demo@latest", nodes)
        offline = other_model.decision_scores(graph, mode="private")[nodes]
        assert np.array_equal(served, offline)
        # A second poll is quiescent.
        assert watcher.poll_once() == []

    def test_pinned_versions_survive_the_flip(self, setup, other_model,
                                              model, graph):
        registry, service, record, training = setup
        watcher = RegistryWatcher(registry, service, ["demo"])
        registry.publish(other_model, "demo", inference_mode="private",
                         training=training)
        watcher.poll_once()
        # Pinning the superseded digest still works: retire only dropped the
        # warm sessions, not the registry bundle.
        nodes = [1, 2]
        pinned = service.predict_scores(f"demo@{record.digest}", nodes)
        offline = model.decision_scores(graph, mode="private")[nodes]
        assert np.array_equal(pinned, offline)

    def test_watch_models_watches_each_name_once(self, setup):
        _registry, service, record, _training = setup
        watcher = watch_models(service, ["demo@latest",
                                         f"demo@{record.digest[:12]}",
                                         "demo"], interval=0.5)
        assert watcher.names == ["demo"]
        assert watcher.interval == 0.5
        assert watcher.registry is service.registry
        assert watcher.poll_once() == []

    def test_a_name_published_after_startup_is_picked_up(
            self, setup, other_model):
        registry, service, record, training = setup
        watcher = RegistryWatcher(registry, service, ["demo", "fresh"])
        assert watcher.poll_once() == []  # nothing under "fresh" yet
        fresh = registry.publish(other_model, "fresh",
                                 inference_mode="private", training=training)
        assert watcher.poll_once() == [("fresh", None, fresh.digest)]
        # A first publish retires nothing: "demo" keeps its warm session.
        assert service.loaded_digests() == sorted([record.digest,
                                                   fresh.digest])

    def test_a_digest_another_name_still_serves_stays_warm(
            self, setup, model, other_model):
        registry, service, record, training = setup
        twin = registry.publish(model, "twin", inference_mode="private",
                                training=training)
        assert twin.digest == record.digest
        watcher = RegistryWatcher(registry, service, ["demo", "twin"])
        new_record = registry.publish(other_model, "demo",
                                      inference_mode="private",
                                      training=training)
        assert watcher.poll_once() == [("demo", record.digest,
                                        new_record.digest)]
        assert service.loaded_digests() == sorted([record.digest,
                                                   new_record.digest])

    def test_background_polls_outlive_a_failed_pass(self, setup):
        registry, service, _record, _training = setup
        watcher = RegistryWatcher(registry, service, ["demo"],
                                  interval=0.01)
        passes = []
        second_pass = threading.Event()

        def poll_once():
            passes.append(1)
            if len(passes) == 1:
                raise ConfigurationError("torn latest.json")
            second_pass.set()
            return []

        watcher.poll_once = poll_once
        with watcher.start():
            assert watcher.start()._thread.is_alive()  # start is idempotent
            assert second_pass.wait(10.0)
        assert watcher._thread is None
        watcher.close()  # closing twice is harmless

    def test_latest_flips_under_live_traffic_with_zero_errors(
            self, setup, model, other_model, graph):
        """A client keeps posting ``@latest`` predicts while a second
        version is published and the watcher polls: every answer is a 200,
        and every request sent after the poll returned is answered by the
        new version, bitwise equal to its offline scores."""
        registry, service, record, training = setup
        watcher = RegistryWatcher(registry, service, ["demo"])
        server = serve_http(service, port=0)
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        nodes = [0, 5, 9]
        body = json.dumps({"model": "demo@latest", "nodes": nodes})
        answers = []  # (sent after the flip?, status, payload)
        answered = threading.Event()
        flipped = threading.Event()
        stop = threading.Event()

        def client():
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.server_address[1], timeout=30.0)
            try:
                after_flip = 0
                while after_flip < 5 and not stop.is_set():
                    sent_after_flip = flipped.is_set()
                    connection.request("POST", "/v1/predict", body=body,
                                       headers={"Content-Type":
                                                "application/json"})
                    response = connection.getresponse()
                    answers.append((sent_after_flip, response.status,
                                    json.loads(response.read())))
                    after_flip += sent_after_flip
                    answered.set()
            finally:
                connection.close()

        traffic = threading.Thread(target=client, daemon=True)
        traffic.start()
        try:
            assert answered.wait(30.0)
            new_record = registry.publish(other_model, "demo",
                                          inference_mode="private",
                                          training=training)
            assert watcher.poll_once() == [("demo", record.digest,
                                            new_record.digest)]
            flipped.set()
            traffic.join(30.0)
            assert not traffic.is_alive()
        finally:
            stop.set()
            server.shutdown()
            server.server_close()
        offline = {
            record.ref: model.decision_scores(graph, mode="private")[nodes],
            new_record.ref: other_model.decision_scores(
                graph, mode="private")[nodes],
        }
        assert [status for _after, status, _payload in answers] \
            == [200] * len(answers)
        assert sum(after for after, _status, _payload in answers) == 5
        assert answers[0][2]["model"] == record.ref  # traffic before the flip
        for after, _status, payload in answers:
            if after:
                assert payload["model"] == new_record.ref
            assert np.array_equal(np.asarray(payload["scores"]),
                                  offline[payload["model"]])
