"""Tests for the serving observability layer (histograms + per-model metrics)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.metrics import (
    LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Histogram,
    ServingMetrics,
    bucket_quantile,
)


class _FakeTicket:
    def __init__(self, size, submitted_at):
        self.nodes = np.zeros(size, dtype=np.int64)
        self.submitted_at = submitted_at


class TestHistogram:
    def test_buckets_are_fixed_and_log_spaced(self):
        ratios = [LATENCY_BUCKETS[i + 1] / LATENCY_BUCKETS[i]
                  for i in range(len(LATENCY_BUCKETS) - 1)]
        np.testing.assert_allclose(ratios, ratios[0])
        assert LATENCY_BUCKETS[0] <= 1e-4          # resolves fast matmuls
        assert LATENCY_BUCKETS[-1] > 30.0          # covers request timeouts
        assert list(SIZE_BUCKETS) == [float(2 ** i) for i in range(17)]

    def test_count_sum_min_max(self):
        hist = Histogram()
        for value in (0.001, 0.004, 0.002):
            hist.observe(value)
        assert hist.count == 3
        assert hist.min == 0.001
        assert hist.max == 0.004
        assert hist.mean == pytest.approx(7e-3 / 3)

    def test_quantiles_bracket_the_data(self):
        hist = Histogram()
        values = [0.001 * (i + 1) for i in range(100)]  # 1ms .. 100ms
        for value in values:
            hist.observe(value)
        # Bucketed estimates: right bucket, interpolated inside it.
        for q, exact in ((0.5, 0.050), (0.95, 0.095), (0.99, 0.099)):
            estimate = hist.quantile(q)
            assert exact / 1.6 <= estimate <= exact * 1.6, (q, estimate)
        # Monotone in q and clamped to the observed range.
        assert hist.quantile(0.5) <= hist.quantile(0.95) <= hist.quantile(0.99)
        assert hist.min <= hist.quantile(0.5) <= hist.max

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram().quantile(0.99) == 0.0

    def test_overflow_bucket_reports_observed_max(self):
        hist = Histogram(bounds=(1.0, 2.0))
        hist.observe(50.0)
        assert hist.quantile(0.99) == 50.0
        assert hist.as_dict()["buckets"] == {"+Inf": 1}

    def test_invalid_quantile_and_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram().quantile(-0.1)
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))

    def test_edge_quantiles_are_exact_extrema(self):
        hist = Histogram()
        for value in (0.002, 0.010, 0.500):
            hist.observe(value)
        assert hist.quantile(0.0) == 0.002
        assert hist.quantile(1.0) == 0.500
        # Empty histograms answer 0.0 at every quantile, edges included.
        assert Histogram().quantile(0.0) == 0.0
        assert Histogram().quantile(1.0) == 0.0

    def test_snapshot_is_a_copy(self):
        hist = Histogram()
        hist.observe(0.003)
        snap = hist.snapshot()
        hist.observe(0.003)
        assert sum(snap["counts"]) == 1
        assert snap["count"] == 1
        assert hist.count == 2

    def test_bucket_quantile_edges(self):
        bounds = (1.0, 2.0, 4.0)
        assert bucket_quantile(bounds, [0, 0, 0, 0], 0.5) == 0.0
        assert bucket_quantile(bounds, [0, 3, 0, 0], 0.0) == 1.0
        assert bucket_quantile(bounds, [0, 3, 0, 0], 1.0) == 2.0
        assert bucket_quantile(bounds, [0, 0, 0, 2], 1.0,
                               overflow_value=9.0) == 9.0
        with pytest.raises(ValueError):
            bucket_quantile(bounds, [1, 0, 0, 0], 1.5)

    def test_as_dict_scales_and_names_quantiles(self):
        hist = Histogram()
        hist.observe(0.010)
        out = hist.as_dict(scale=1e3)
        assert out["count"] == 1
        assert {"p50", "p95", "p99"} <= set(out)
        assert out["max"] == pytest.approx(10.0)  # milliseconds


def _loop_quantile(hist: Histogram, q: float) -> float:
    """The interpolation loop ``Histogram.quantile`` ran before it called
    :func:`bucket_quantile`, kept verbatim as the oracle."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if hist.count == 0:
        return 0.0
    if q == 0.0:
        return hist.min
    if q == 1.0:
        return hist.max
    rank = q * hist.count
    seen = 0
    for index, bucket_count in enumerate(hist.counts):
        if bucket_count == 0:
            continue
        if seen + bucket_count < rank:
            seen += bucket_count
            continue
        if index >= len(hist.bounds):  # overflow: no edge to lerp toward
            return hist.max
        lower = hist.bounds[index - 1] if index > 0 else 0.0
        upper = hist.bounds[index]
        fraction = (rank - seen) / bucket_count
        estimate = lower + (upper - lower) * fraction
        # Never report outside what was actually observed.
        return min(max(estimate, hist.min), hist.max)
    return hist.max


class TestQuantileMatchesTheOldLoop:
    """``Histogram.quantile`` delegates to :func:`bucket_quantile`; every
    p50/p95/p99 that ``/stats`` and ``--stats-interval`` report is the one
    the old inline loop gave, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(min_value=-1.0, max_value=500.0,
                                     allow_nan=False), max_size=60),
           q=st.one_of(st.sampled_from([0.0, 0.5, 0.95, 0.99, 1.0]),
                       st.floats(min_value=0.0, max_value=1.0)),
           sizes=st.booleans())
    def test_equals_the_old_loop(self, values, q, sizes):
        hist = Histogram(SIZE_BUCKETS if sizes else LATENCY_BUCKETS)
        for value in values:
            hist.observe(value)
        assert hist.quantile(q) == _loop_quantile(hist, q)


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


class TestServingMetrics:
    def test_observe_batch_records_latency_per_ticket(self):
        metrics = ServingMetrics()
        tickets = [_FakeTicket(2, submitted_at=1.0),
                   _FakeTicket(3, submitted_at=1.5)]
        metrics.observe_batch("m-a", tickets, completed_at=2.0)
        model = metrics.model("m-a")
        assert model.latency.count == 2
        assert model.latency.max == pytest.approx(1.0)
        assert model.batch_tickets.count == 1
        assert model.batch_rows.max == 5.0
        assert model.failures == 0

    def test_failed_batches_count_failures_not_latency(self):
        metrics = ServingMetrics()
        metrics.observe_batch("m", [_FakeTicket(1, 0.0)], 1.0, failed=True)
        model = metrics.model("m")
        assert model.failures == 1
        assert model.latency.count == 0

    def test_models_are_isolated(self):
        metrics = ServingMetrics()
        metrics.observe_batch("a", [_FakeTicket(1, 0.0)], 0.5)
        metrics.observe_batch("b", [_FakeTicket(1, 0.0)], 5.0)
        assert metrics.model("a").latency.max == pytest.approx(0.5)
        assert metrics.model("b").latency.max == pytest.approx(5.0)
        assert metrics.labels() == ["a", "b"]

    def test_queue_depth_distribution(self):
        metrics = ServingMetrics()
        for depth in (1, 4, 4, 9):
            metrics.observe_queue_depth("m", depth)
        assert metrics.model("m").queue_depth.count == 4
        assert metrics.model("m").queue_depth.max == 9.0

    def test_as_dict_and_summary_line(self):
        metrics = ServingMetrics()
        assert metrics.summary_line() == "no traffic yet"
        metrics.observe_batch("demo@abc:private", [_FakeTicket(1, 0.0)], 0.002)
        payload = metrics.as_dict()
        assert set(payload) == {"demo@abc:private"}
        latency = payload["demo@abc:private"]["latency_ms"]
        assert latency["count"] == 1
        assert {"p50", "p95", "p99"} <= set(latency)
        line = metrics.summary_line()
        assert "demo@abc:private" in line and "p99=" in line
