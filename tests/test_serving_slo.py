"""Tests for the SLO control plane: AIMD adaptive batching, queue-depth
admission control, atomic reconfiguration under load, the memory-mapped
bundle path and the fused response renderer.

The bar is the same as the rest of the serving stack: every mechanism here
changes *latency and availability* only.  Scores stay bitwise equal to
offline ``GCON.decision_scores`` in every configuration — adaptive or
static, mapped or eager, mid-reconfiguration or not.
"""

from __future__ import annotations

import bisect
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import GCONConfig
from repro.core.model import GCON
from repro.graphs.datasets import load_dataset
from repro.serving import (
    InferenceService,
    MicroBatcher,
    ModelRegistry,
    OverloadedError,
    SloController,
    format_prediction,
    format_prediction_body,
    serve_http,
)
from repro.serving.metrics import LATENCY_BUCKETS, bucket_quantile
from repro.serving.service import PredictRequest
from repro.serving.slo import ModelBudget, estimate_drain_seconds


# --------------------------------------------------------------------------- #
# controller fakes: a hand-fed metrics source and a budget-recording router
# --------------------------------------------------------------------------- #
class FakeMetrics:
    """A ServingMetrics stand-in whose histograms the test sets directly."""

    def __init__(self):
        self._counts: dict[str, list[int]] = {}
        self._max: dict[str, float] = {}

    def observe(self, label: str, seconds: float, n: int = 1) -> None:
        counts = self._counts.setdefault(
            label, [0] * (len(LATENCY_BUCKETS) + 1))
        counts[bisect.bisect_left(LATENCY_BUCKETS, seconds)] += n
        self._max[label] = max(self._max.get(label, 0.0), seconds)

    def latency_snapshot(self):
        return {label: (tuple(counts), self._max[label], sum(counts))
                for label, counts in self._counts.items()}


class FakeRouter:
    """Records configure_model calls; reports limits like a ModelRouter."""

    def __init__(self, max_batch_size: int = 64, max_latency: float = 0.005):
        self.max_batch_size = max_batch_size
        self.max_latency = max_latency
        self.metrics = FakeMetrics()
        self.overrides: dict[str, tuple[int, float]] = {}
        self.calls: list[tuple[str, int, float]] = []

    def model_limits(self, label: str) -> tuple[int, float]:
        return self.overrides.get(label,
                                  (self.max_batch_size, self.max_latency))

    def configure_model(self, label: str, *, max_batch_size=None,
                        max_latency=None) -> None:
        self.calls.append((label, max_batch_size, max_latency))
        self.overrides[label] = (max_batch_size, max_latency)


def controller(router=None, **kwargs):
    router = router if router is not None else FakeRouter()
    kwargs.setdefault("target_p99", 0.050)
    kwargs.setdefault("metrics", FakeMetrics())
    return SloController(router, **kwargs)


class TestAimdController:
    def test_over_target_window_backs_off_multiplicatively(self):
        router = FakeRouter(max_batch_size=64, max_latency=0.005)
        metrics = FakeMetrics()
        ctl = controller(router, metrics=metrics, target_p99=0.050)
        metrics.observe("demo", 0.200, n=100)  # p99 ~ 200ms, way over
        decisions = ctl.tick()
        assert decisions["demo"]["action"] == "backoff"
        size, latency = router.overrides["demo"]
        assert size == 32            # 64 * 0.5
        assert latency == 0.0025     # 0.005 * 0.5
        state = ctl.state()["models"]["demo"]
        assert state["windows_over_slo"] == 1
        assert state["backed_off"] == 1
        assert state["last_window_requests"] == 100

    def test_under_target_window_grows_additively(self):
        router = FakeRouter(max_batch_size=64, max_latency=0.004)
        metrics = FakeMetrics()
        ctl = controller(router, metrics=metrics, target_p99=0.050,
                         increase_by=8, max_batch_size=4096)
        metrics.observe("demo", 0.001, n=100)
        decisions = ctl.tick()
        assert decisions["demo"]["action"] == "grow"
        size, latency = router.overrides["demo"]
        assert size == 72            # 64 + 8
        assert latency == 0.004      # already at the base ceiling: held

    def test_repeated_overload_converges_to_the_floors(self):
        router = FakeRouter(max_batch_size=64, max_latency=0.005)
        metrics = FakeMetrics()
        ctl = controller(router, metrics=metrics, target_p99=0.001,
                         min_batch_size=1, min_latency=0.0005)
        for _ in range(20):
            metrics.observe("demo", 0.500, n=10)  # every window violates
            ctl.tick()
        size, latency = router.overrides["demo"]
        assert size == 1
        assert latency == 0.0005

    def test_recovery_after_backoff_is_additive_and_capped(self):
        router = FakeRouter(max_batch_size=64, max_latency=0.004)
        metrics = FakeMetrics()
        ctl = controller(router, metrics=metrics, target_p99=0.050,
                         increase_by=8, backoff=0.5, max_batch_size=64)
        metrics.observe("demo", 0.300, n=50)   # crash the budgets
        ctl.tick()
        for _ in range(50):                     # then run fast forever
            metrics.observe("demo", 0.001, n=50)
            ctl.tick()
        size, latency = router.overrides["demo"]
        assert size == 64              # grew back, capped at the size ceiling
        assert latency == 0.004        # deadline never exceeds the base
        state = ctl.state()["models"]["demo"]
        assert state["grown"] >= 4     # (32 -> 64 in +8 steps)

    def test_growth_respects_the_configured_size_cap(self):
        router = FakeRouter(max_batch_size=64, max_latency=0.004)
        metrics = FakeMetrics()
        ctl = controller(router, metrics=metrics, target_p99=0.050,
                         increase_by=100, max_batch_size=100)
        metrics.observe("demo", 0.001, n=10)
        ctl.tick()
        assert router.overrides["demo"][0] == 100

    def test_idle_window_holds_the_budgets(self):
        """No new samples since the last tick -> no decision, no changes."""
        router = FakeRouter()
        metrics = FakeMetrics()
        ctl = controller(router, metrics=metrics, target_p99=0.050)
        metrics.observe("demo", 0.200, n=10)
        assert "demo" in ctl.tick()
        calls_before = len(router.calls)
        assert ctl.tick() == {}                # same cumulative counts: idle
        assert len(router.calls) == calls_before

    def test_p99_is_windowed_not_lifetime(self):
        """A slow past must not poison a fast present: after one bad window,
        an all-fast window grows even though the lifetime histogram is still
        dominated by slow samples."""
        router = FakeRouter()
        metrics = FakeMetrics()
        ctl = controller(router, metrics=metrics, target_p99=0.050)
        metrics.observe("demo", 0.400, n=1000)  # terrible first window
        assert ctl.tick()["demo"]["action"] == "backoff"
        metrics.observe("demo", 0.001, n=10)    # tiny, but all-fast, window
        assert ctl.tick()["demo"]["action"] == "grow"

    def test_models_are_tuned_independently(self):
        router = FakeRouter()
        metrics = FakeMetrics()
        ctl = controller(router, metrics=metrics, target_p99=0.050)
        metrics.observe("slow", 0.300, n=50)
        metrics.observe("fast", 0.001, n=50)
        decisions = ctl.tick()
        assert decisions["slow"]["action"] == "backoff"
        assert decisions["fast"]["action"] == "grow"

    def test_state_exposes_the_stats_block(self):
        ctl = controller(target_p99=0.050)
        state = ctl.state()
        assert state["target_p99_ms"] == 50.0
        assert state["last_error"] is None
        for key in ("interval_seconds", "increase_by", "backoff",
                    "base_max_latency_seconds", "ticks", "models"):
            assert key in state

    def test_attainment_counts_windows(self):
        router = FakeRouter()
        metrics = FakeMetrics()
        ctl = controller(router, metrics=metrics, target_p99=0.050)
        metrics.observe("demo", 0.001, n=10)
        ctl.tick()
        metrics.observe("demo", 0.400, n=10)
        ctl.tick()
        metrics.observe("demo", 0.001, n=10)
        ctl.tick()
        state = ctl.state()["models"]["demo"]
        assert state["windows_under_slo"] == 2
        assert state["windows_over_slo"] == 1
        assert state["slo_attainment"] == pytest.approx(2 / 3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="target_p99"):
            controller(target_p99=0.0)
        with pytest.raises(ValueError, match="backoff"):
            controller(backoff=1.0)
        with pytest.raises(ValueError, match="increase_by"):
            controller(increase_by=0)
        with pytest.raises(ValueError, match="min_batch_size"):
            controller(min_batch_size=10, max_batch_size=5)

    def test_backoff_floors_a_fractional_row_budget(self):
        router = FakeRouter(max_batch_size=7, max_latency=0.005)
        metrics = FakeMetrics()
        ctl = controller(router, metrics=metrics, target_p99=0.050)
        metrics.observe("demo", 0.200, n=10)
        assert ctl.tick()["demo"]["max_batch_size"] == 3   # int(7 * 0.5)
        assert router.overrides["demo"][0] == 3

    def test_a_new_model_starts_from_its_router_limits(self):
        """The first window adjusts from the model's own limits (a per-model
        override), not from the router-wide defaults."""
        router = FakeRouter(max_batch_size=64, max_latency=0.004)
        router.overrides["demo"] = (10, 0.002)
        metrics = FakeMetrics()
        ctl = controller(router, metrics=metrics, target_p99=0.050,
                         increase_by=8)
        metrics.observe("demo", 0.001, n=10)
        ctl.tick()
        size, latency = router.overrides["demo"]
        assert size == 18
        # The deadline recovers by a quarter of the router-wide base.
        assert latency == pytest.approx(0.002 + 0.004 / 4)

    def test_budgets_at_their_bounds_are_not_reconfigured(self):
        router = FakeRouter(max_batch_size=64, max_latency=0.004)
        metrics = FakeMetrics()
        ctl = controller(router, metrics=metrics, target_p99=0.050,
                         max_batch_size=64)
        metrics.observe("fast", 0.001, n=10)   # grows past nothing
        router.overrides["slow"] = (1, 0.0005)
        metrics.observe("slow", 0.400, n=10)   # backs off below nothing
        decisions = ctl.tick()
        assert [decisions[label]["action"] for label in ("fast", "slow")] \
            == ["grow", "backoff"]
        assert router.calls == []
        models = ctl.state()["models"]
        assert models["fast"]["grown"] == models["slow"]["backed_off"] == 0
        assert models["fast"]["windows_under_slo"] == 1
        assert models["slow"]["windows_over_slo"] == 1

    def test_decision_reports_the_window_it_judged(self):
        router = FakeRouter(max_batch_size=64, max_latency=0.005)
        metrics = FakeMetrics()
        ctl = controller(router, metrics=metrics, target_p99=0.050)
        metrics.observe("demo", 0.001, n=5)
        ctl.tick()
        metrics.observe("demo", 0.200, n=100)  # only these are the window
        decision = ctl.tick()["demo"]
        window = [0] * (len(LATENCY_BUCKETS) + 1)
        window[bisect.bisect_left(LATENCY_BUCKETS, 0.200)] = 100
        p99 = bucket_quantile(LATENCY_BUCKETS, window, 0.99,
                              overflow_value=0.200)
        assert decision == {"action": "backoff", "p99": p99, "requests": 100,
                            "max_batch_size": 36, "max_latency": 0.0025}
        state = ctl.state()["models"]["demo"]
        assert state["last_window_p99_ms"] == pytest.approx(p99 * 1e3)
        assert state["last_window_requests"] == 100

    def test_every_tick_counts_even_without_traffic(self):
        ctl = controller(target_p99=0.050)
        for _ in range(3):
            assert ctl.tick() == {}
        state = ctl.state()
        assert state["ticks"] == 3
        assert state["models"] == {}

    def test_model_state_is_the_aimd_audit_trail(self):
        """``/stats`` → ``slo.models.<label>`` carries the budgets and the
        window tallies; perfbench reads ``max_batch_size`` from it."""
        metrics = FakeMetrics()
        ctl = controller(metrics=metrics, target_p99=0.050)
        metrics.observe("demo", 0.001, n=10)
        ctl.tick()
        assert set(ctl.state()["models"]["demo"]) == {
            "max_batch_size", "max_latency_seconds", "last_window_p99_ms",
            "last_window_requests", "windows_under_slo", "windows_over_slo",
            "grown", "backed_off", "slo_attainment"}

    def test_idle_model_attains_the_slo(self):
        assert ModelBudget(max_batch_size=8, max_latency=0.005) \
            .slo_attainment == 1.0

    def test_start_is_idempotent_and_the_loop_ticks(self):
        ctl = controller(target_p99=0.050, interval=0.005)
        assert ctl.start() is ctl
        thread = ctl._thread
        try:
            assert ctl.start()._thread is thread
            deadline = time.monotonic() + 5.0
            while ctl.ticks < 2:
                assert time.monotonic() < deadline, "the loop never ticked"
                time.sleep(0.005)
        finally:
            ctl.close()
        assert not thread.is_alive()
        assert ctl.last_error is None

    def test_background_loop_ticks_and_survives_errors(self):
        class ExplodingMetrics:
            def latency_snapshot(self):
                raise RuntimeError("boom")

        ctl = controller(metrics=ExplodingMetrics(), interval=0.005)
        with ctl:
            deadline = time.monotonic() + 2.0
            while ctl.last_error is None and time.monotonic() < deadline:
                time.sleep(0.005)
        assert ctl.last_error == "RuntimeError('boom')"
        # close() is idempotent and the thread is gone.
        ctl.close()
        assert ctl._thread is None


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


# --------------------------------------------------------------------------- #
# a real model end to end
# --------------------------------------------------------------------------- #
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
                     training={"dataset": "cora_ml"})
    return registry


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
            assert stats["slo"] == {"enabled": False}
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestMmapBundles:
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


class TestReconfigurationUnderLoad:
    def test_concurrent_per_field_configures_never_lose_an_update(self):
        batcher = MicroBatcher(lambda key, nodes: np.zeros((nodes.size, 2)))
        barrier = threading.Barrier(2)

        def set_size():
            barrier.wait()
            for _ in range(500):
                batcher.configure(max_batch_size=7)

        def set_latency():
            barrier.wait()
            for _ in range(500):
                batcher.configure(max_latency=0.007)

        threads = [threading.Thread(target=set_size),
                   threading.Thread(target=set_latency)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Without the limits lock, interleaved read-modify-writes could
        # resurrect a stale field; with it, both final values survive.
        assert batcher.max_batch_size == 7
        assert batcher.max_latency == 0.007

    def test_configure_validates_and_keeps_old_limits_on_error(self):
        batcher = MicroBatcher(lambda key, nodes: np.zeros((nodes.size, 2)),
                               max_batch_size=16, max_latency=0.004)
        with pytest.raises(ValueError):
            batcher.configure(max_batch_size=0)
        with pytest.raises(ValueError):
            batcher.configure(max_latency=-1.0)
        assert (batcher.max_batch_size, batcher.max_latency) == (16, 0.004)

    def test_results_stay_correct_while_limits_flap(self):
        """Hammer a live batcher while another thread flips both limits:
        every ticket still gets exactly its own rows back."""
        def scorer(model_key, nodes):
            return np.stack([nodes.astype(float), 2.0 * nodes], axis=1)

        batcher = MicroBatcher(scorer, max_batch_size=8, max_latency=0.0)
        stop = threading.Event()

        def flap():
            flip = False
            while not stop.is_set():
                if flip:
                    batcher.configure(max_batch_size=1, max_latency=0.0)
                else:
                    batcher.configure(max_batch_size=64, max_latency=0.002)
                flip = not flip

        flapper = threading.Thread(target=flap, daemon=True)
        with batcher:
            flapper.start()
            try:
                tickets = [(i, batcher.submit("m", [i, i + 1]))
                           for i in range(300)]
                for i, ticket in tickets:
                    result = ticket.result(10.0)
                    np.testing.assert_array_equal(result[:, 0], [i, i + 1])
            finally:
                stop.set()
                flapper.join()
        assert batcher.depth() == 0  # everything drained and accounted

    def test_slo_controller_drives_a_real_router_safely(self, registry,
                                                        graph, model):
        """End to end: a controller ticking against a live service while
        requests flow — budgets move, scores never do."""
        service = InferenceService(registry, graph=graph)
        ctl = SloController(service.batcher, target_p99=1e-6,  # everything
                            metrics=service.metrics)           # violates
        service.attach_slo(ctl)
        offline = model.decision_scores(graph, mode="private")
        try:
            for i in range(10):
                nodes = [i, i + 2]
                assert np.array_equal(
                    service.predict_scores("demo", nodes), offline[nodes])
                ctl.tick()
            state = service.stats()["slo"]
            assert state["enabled"] is True
            (label, budget), = state["models"].items()
            assert budget["windows_over_slo"] >= 1   # it did intervene
            assert budget["max_batch_size"] >= 1
        finally:
            service.close()


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


class TestBucketQuantile:
    def test_empty_counts_is_zero(self):
        assert bucket_quantile((1.0, 2.0), [0, 0, 0], 0.99) == 0.0

    def test_overflow_bucket_uses_the_observed_max(self):
        bounds = (1.0, 2.0)
        counts = [0, 0, 5]      # all samples past the last bound
        assert bucket_quantile(bounds, counts, 0.99,
                               overflow_value=7.5) == 7.5

    def test_interpolates_within_a_bucket(self):
        bounds = (1.0, 2.0, 4.0)
        counts = [0, 100, 0, 0]  # uniform inside (1, 2]
        p50 = bucket_quantile(bounds, counts, 0.50)
        assert 1.0 < p50 <= 2.0
