"""Tests for per-model routing: independent queues kill head-of-line blocking."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serving import MicroBatcher, ModelRouter


class CountingScorer:
    """Scores node i as [i, 2i]; counts every (model, batch) execution."""

    def __init__(self, delays: dict | None = None):
        self.calls: list[tuple[object, np.ndarray]] = []
        self.lock = threading.Lock()
        self.delays = delays or {}

    def __call__(self, model_key, nodes: np.ndarray) -> np.ndarray:
        delay = self.delays.get(model_key, 0.0)
        if delay:
            time.sleep(delay)
        with self.lock:
            self.calls.append((model_key, nodes.copy()))
        return np.stack([nodes.astype(float), 2.0 * nodes], axis=1)


class TestRouting:
    def test_each_model_gets_its_own_queue(self):
        scorer = CountingScorer()
        router = ModelRouter(scorer, max_batch_size=64)
        router.submit("a", [1, 2])
        router.submit("b", [3])
        router.submit("a", [4])
        assert router.queue_count() == 2
        assert router.queue_for("a") is not router.queue_for("b")
        assert router.run_once() == 3
        by_model = {key: nodes for key, nodes in scorer.calls}
        np.testing.assert_array_equal(by_model["a"], [1, 2, 4])
        np.testing.assert_array_equal(by_model["b"], [3])

    def test_rows_count_per_model_not_globally(self):
        """The cross-model bug: rows of model A must not consume model B's
        batch budget.  Submit A up to the cap, then B — B's queue still forms
        its own batch with its own budget."""
        scorer = CountingScorer()
        router = ModelRouter(scorer, max_batch_size=4)
        for i in range(4):  # A exactly at its cap
            router.submit("a", [i])
        tickets_b = [router.submit("b", [10 + i]) for i in range(3)]
        assert router.run_once() == 7
        # B was answered by one stacked matmul of its own 3 rows.
        assert router.stats.per_model_matmuls == {"a": 1, "b": 1}
        assert router.stats.per_model_max_rows == {"a": 4, "b": 3}
        for i, ticket in enumerate(tickets_b):
            np.testing.assert_array_equal(ticket.result(1.0), [[10 + i, 20 + 2 * i]])

    def test_inline_execution_drains_only_that_models_queue(self):
        scorer = CountingScorer()
        router = ModelRouter(scorer)
        router.submit("parked", [99])  # must stay queued
        np.testing.assert_array_equal(router.predict_scores("m", [7]), [[7, 14]])
        assert [key for key, _ in scorer.calls] == ["m"]
        assert router.run_once() == 1  # "parked" still there

    def test_independent_deadlines_no_head_of_line_blocking(self):
        """With dispatch threads running, a slow model's matmul cannot delay
        a fast model's flush: each queue has its own deadline and thread."""
        scorer = CountingScorer(delays={"slow": 0.25})
        with ModelRouter(scorer, max_batch_size=64,
                         max_latency=0.005) as router:
            slow_results: list = []
            slow_thread = threading.Thread(
                target=lambda: slow_results.append(
                    router.predict_scores("slow", [1], timeout=10.0)))
            slow_thread.start()
            time.sleep(0.05)  # the slow matmul is now in flight
            start = time.monotonic()
            fast = router.predict_scores("fast", [2], timeout=10.0)
            fast_elapsed = time.monotonic() - start
            slow_thread.join()
        np.testing.assert_array_equal(fast, [[2, 4]])
        np.testing.assert_array_equal(slow_results[0], [[1, 2]])
        # The fast request must not have waited out the slow model's 250ms
        # compute (generous bound for scheduler noise on a loaded 1-core CI).
        assert fast_elapsed < 0.2, f"fast model waited {fast_elapsed:.3f}s"

    def test_aggregate_stats_merge_across_queues(self):
        scorer = CountingScorer()
        router = ModelRouter(scorer)
        for i in range(3):
            router.submit("a", [i])
        router.submit("b", [7, 8])
        router.run_once()
        stats = router.stats
        assert stats.requests == 4
        assert stats.rows_requested == 5
        assert stats.matmuls == 2
        assert stats.coalesced_requests == 3    # a's three tickets only
        assert stats.max_batch_rows == 3
        per_model = router.per_model_stats()
        assert per_model["a"]["coalesced_requests"] == 3
        assert per_model["b"]["coalesced_requests"] == 0
        assert per_model["a"]["max_batch_size"] == 64

    def test_error_in_one_model_leaves_others_alive(self):
        def scorer(model_key, nodes):
            if model_key == "bad":
                raise ValueError("poisoned model")
            return np.zeros((nodes.size, 2))

        router = ModelRouter(scorer)
        good = router.submit("good", [1])
        bad = router.submit("bad", [2])
        router.run_once()
        assert good.result(1.0).shape == (1, 2)
        with pytest.raises(ValueError, match="poisoned model"):
            bad.result(1.0)
        assert router.metrics.model("bad").failures == 1

    def test_metrics_observe_latency_per_model(self):
        scorer = CountingScorer()
        router = ModelRouter(scorer)
        router.predict_scores("a", [1, 2])
        router.predict_scores("b", [3])
        payload = router.metrics.as_dict()
        assert set(payload) == {"a", "b"}
        assert payload["a"]["latency_ms"]["count"] == 1
        assert payload["a"]["batch_rows"]["max"] == 2.0
        assert payload["b"]["batch_rows"]["max"] == 1.0

    def test_close_flushes_every_queue(self):
        scorer = CountingScorer()
        router = ModelRouter(scorer, max_batch_size=64, max_latency=30.0)
        router.start()
        tickets = [router.submit(model, [i])
                   for i, model in enumerate(("a", "b", "a"))]
        router.close()
        for ticket in tickets:
            assert ticket.result(1.0) is not None

    def test_retire_drops_the_queue_and_flushes_its_tickets(self):
        scorer = CountingScorer()
        router = ModelRouter(scorer)
        ticket = router.submit("old", [5])
        assert router.retire("old") is True
        assert router.queue_count() == 0
        np.testing.assert_array_equal(ticket.result(1.0), [[5, 10]])
        assert router.retire("old") is False  # already gone
        # New traffic simply recreates the queue.
        np.testing.assert_array_equal(router.predict_scores("old", [6]),
                                      [[6, 12]])

    def test_retire_stops_a_started_queues_thread(self):
        scorer = CountingScorer()
        with ModelRouter(scorer, max_latency=30.0) as router:
            ticket = router.submit("old", [3])
            assert router.retire("old") is True
            np.testing.assert_array_equal(ticket.result(5.0), [[3, 6]])
            assert router.queue_count() == 0

    def test_invalid_defaults_rejected(self):
        with pytest.raises(ValueError):
            ModelRouter(CountingScorer(), max_batch_size=0)
        with pytest.raises(ValueError):
            ModelRouter(CountingScorer(), max_latency=-0.1)

    @pytest.mark.parametrize("latency", [float("nan"), float("inf")])
    def test_non_finite_latency_rejected_at_construction(self, latency):
        """Refused when the router is built, not when the first request
        lazily creates a queue."""
        with pytest.raises(ValueError, match="finite"):
            ModelRouter(CountingScorer(), max_latency=latency)

    def test_every_queue_runs_the_router_limits(self):
        """The limits are fixed when the router is built: a queue created
        before ``start``, one created after it, and a retired model's new
        queue all run the same row budget and deadline."""
        router = ModelRouter(CountingScorer(), max_batch_size=3,
                             max_latency=0.02)
        try:
            early = router.queue_for("early")
            router.start()
            late = router.queue_for("late")
            router.retire("early")
            again = router.queue_for("early")
            assert again is not early
            for queue in (early, late, again):
                assert (queue.max_batch_size, queue.max_latency) == (3, 0.02)
        finally:
            router.close()


class TestBatcherSatelliteFixes:
    """Pin the per-model stats accounting and BaseException handling."""

    def test_mixed_batch_does_not_count_as_coalesced(self):
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=64)
        batcher.submit("a", [1])
        batcher.submit("b", [2])
        batcher.run_once()
        # Two tickets shared the flush but not a matmul: nothing coalesced.
        assert batcher.stats.coalesced_requests == 0
        assert batcher.stats.per_model_coalesced == {}
        # And max_batch_rows measures the largest single matmul, not the
        # mixed flush total.
        assert batcher.stats.max_batch_rows == 1
        assert batcher.stats.per_model_max_rows == {"a": 1, "b": 1}

    def test_same_model_tickets_do_count_as_coalesced(self):
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=64)
        batcher.submit("a", [1, 2])
        batcher.submit("a", [3])
        batcher.submit("b", [4])
        batcher.run_once()
        assert batcher.stats.coalesced_requests == 2
        assert batcher.stats.per_model_coalesced == {"a": 2}
        assert batcher.stats.max_batch_rows == 3
        assert batcher.stats.per_model_max_rows == {"a": 3, "b": 1}

    def test_base_exception_fails_tickets_then_reraises(self):
        def scorer(model_key, nodes):
            raise KeyboardInterrupt("operator hit ^C")

        batcher = MicroBatcher(scorer, max_batch_size=64)
        first = batcher.submit("a", [1])
        second = batcher.submit("b", [2])
        with pytest.raises(KeyboardInterrupt):
            batcher.run_once()
        # No caller is left blocked until timeout: both tickets failed fast.
        for ticket in (first, second):
            assert ticket.done()
            with pytest.raises(KeyboardInterrupt):
                ticket.result(0.1)

    def test_plain_exception_still_forwarded_not_raised(self):
        def scorer(model_key, nodes):
            raise RuntimeError("model exploded")

        batcher = MicroBatcher(scorer, max_batch_size=64)
        ticket = batcher.submit("a", [1])
        batcher.run_once()  # must NOT raise
        with pytest.raises(RuntimeError, match="model exploded"):
            ticket.result(0.1)
