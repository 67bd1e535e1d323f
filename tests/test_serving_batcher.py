"""Tests for the micro-batching request queue."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serving import MicroBatcher


class CountingScorer:
    """Scores node i as [i, 2i]; counts every (model, batch) execution."""

    def __init__(self):
        self.calls: list[tuple[object, np.ndarray]] = []
        self.lock = threading.Lock()

    def __call__(self, model_key, nodes: np.ndarray) -> np.ndarray:
        with self.lock:
            self.calls.append((model_key, nodes.copy()))
        return np.stack([nodes.astype(float), 2.0 * nodes], axis=1)


class TestRunOnce:
    """Deterministic batching semantics via the synchronous drain."""

    def test_queued_requests_coalesce_into_one_matmul(self):
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=64)
        tickets = [batcher.submit("m", [i]) for i in range(5)]
        assert batcher.run_once() == 5
        assert len(scorer.calls) == 1  # one stacked matmul for all five
        np.testing.assert_array_equal(scorer.calls[0][1], np.arange(5))
        for i, ticket in enumerate(tickets):
            np.testing.assert_array_equal(ticket.result(1.0), [[i, 2 * i]])
        assert batcher.stats.batches == 1
        assert batcher.stats.matmuls == 1
        assert batcher.stats.coalesced_requests == 5

    def test_one_matmul_per_model_in_a_mixed_batch(self):
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=64)
        t1 = batcher.submit("model-a", [1, 2])
        t2 = batcher.submit("model-b", [3])
        t3 = batcher.submit("model-a", [4])
        batcher.run_once()
        assert len(scorer.calls) == 2  # one per model, not one per request
        by_model = {key: nodes for key, nodes in scorer.calls}
        np.testing.assert_array_equal(by_model["model-a"], [1, 2, 4])
        np.testing.assert_array_equal(by_model["model-b"], [3])
        np.testing.assert_array_equal(t1.result(1.0), [[1, 2], [2, 4]])
        np.testing.assert_array_equal(t2.result(1.0), [[3, 6]])
        np.testing.assert_array_equal(t3.result(1.0), [[4, 8]])

    def test_multi_node_requests_are_split_back_correctly(self):
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=64)
        t1 = batcher.submit("m", [10, 11, 12])
        t2 = batcher.submit("m", [20])
        t3 = batcher.submit("m", [30, 31])
        batcher.run_once()
        np.testing.assert_array_equal(t1.result(1.0)[:, 0], [10, 11, 12])
        np.testing.assert_array_equal(t2.result(1.0)[:, 0], [20])
        np.testing.assert_array_equal(t3.result(1.0)[:, 0], [30, 31])

    def test_scorer_error_propagates_to_every_caller_of_that_model(self):
        def scorer(model_key, nodes):
            if model_key == "bad":
                raise ValueError("poisoned model")
            return np.zeros((nodes.size, 2))

        batcher = MicroBatcher(scorer, max_batch_size=64)
        good = batcher.submit("good", [1])
        bad1 = batcher.submit("bad", [2])
        bad2 = batcher.submit("bad", [3])
        batcher.run_once()
        assert good.result(1.0).shape == (1, 2)
        for ticket in (bad1, bad2):
            with pytest.raises(ValueError, match="poisoned model"):
                ticket.result(1.0)

    def test_invalid_submissions_rejected(self):
        batcher = MicroBatcher(CountingScorer())
        with pytest.raises(ValueError):
            batcher.submit("m", [])
        with pytest.raises(ValueError):
            MicroBatcher(CountingScorer(), max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(CountingScorer(), max_latency=-1)

    @pytest.mark.parametrize("latency", [float("nan"), float("inf")])
    def test_non_finite_latency_rejected(self, latency):
        """A NaN or infinite deadline passes a plain ``>= 0`` check but is
        no ``queue.get`` timeout: the dispatch thread would die on the first
        ticket and leave every caller waiting."""
        with pytest.raises(ValueError, match="finite"):
            MicroBatcher(CountingScorer(), max_latency=latency)

    def test_inline_execution_without_a_thread(self):
        """predict_scores works with no dispatch thread running."""
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer)
        np.testing.assert_array_equal(
            batcher.predict_scores("m", [7]), [[7, 14]])


class TestDispatchThread:
    def test_concurrent_callers_coalesce(self):
        scorer = CountingScorer()
        # A generous latency window so all threads land in one batch.
        with MicroBatcher(scorer, max_batch_size=1024,
                          max_latency=0.25) as batcher:
            results = [None] * 16
            errors = []

            def query(i):
                try:
                    results[i] = batcher.predict_scores("m", [i], timeout=10.0)
                except Exception as error:  # pragma: no cover - diagnostics
                    errors.append(error)

            threads = [threading.Thread(target=query, args=(i,))
                       for i in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        for i, scores in enumerate(results):
            np.testing.assert_array_equal(scores, [[i, 2 * i]])
        # 16 requests cannot have taken 16 separate batches: the window
        # coalesces them (leave slack for scheduling jitter).
        assert batcher.stats.batches < 16
        assert batcher.stats.coalesced_requests > 0

    def test_multi_row_tickets_get_their_own_rows(self):
        """A live dispatch thread splits each coalesced matmul back into
        exactly each ticket's own rows, and no batch passes the row budget."""
        scorer = CountingScorer()
        with MicroBatcher(scorer, max_batch_size=8,
                          max_latency=0.002) as batcher:
            tickets = [(i, batcher.submit("m", [i, i + 1]))
                       for i in range(300)]
            for i, ticket in tickets:
                np.testing.assert_array_equal(ticket.result(10.0)[:, 0],
                                              [i, i + 1])
        assert batcher.depth() == 0  # everything drained and accounted
        assert batcher.stats.max_batch_rows <= 8

    def test_zero_latency_flushes_each_ticket_alone(self):
        """``max_latency=0`` closes a forming batch at its first ticket:
        the deadline loop never waits for a second one, whatever the row
        budget."""
        scorer = CountingScorer()
        with MicroBatcher(scorer, max_batch_size=1024,
                          max_latency=0.0) as batcher:
            tickets = [batcher.submit("m", [i]) for i in range(20)]
            for i, ticket in enumerate(tickets):
                np.testing.assert_array_equal(ticket.result(10.0),
                                              [[i, 2 * i]])
        assert batcher.stats.batches == 20
        assert batcher.stats.coalesced_requests == 0
        assert batcher.stats.max_batch_rows == 1

    def test_max_batch_size_flushes_early(self):
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=4, max_latency=30.0)
        batcher.start()
        try:
            tickets = [batcher.submit("m", [i]) for i in range(4)]
            # With max_latency=30s, only the size trigger can flush this.
            for ticket in tickets:
                assert ticket.result(10.0) is not None
        finally:
            batcher.close()

    def test_close_flushes_stragglers(self):
        scorer = CountingScorer()
        batcher = MicroBatcher(scorer, max_batch_size=64, max_latency=30.0)
        batcher.start()
        ticket = batcher.submit("m", [5])
        batcher.close()
        np.testing.assert_array_equal(ticket.result(1.0), [[5, 10]])
