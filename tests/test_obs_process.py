"""Tests for the process gauges ``/stats`` and ``/metrics`` report."""

from __future__ import annotations

import sys
import time

from repro.obs.process import process_rss_bytes, process_stats


def test_uptime_counts_from_started_at():
    stats = process_stats(time.time() - 5.0)
    assert 5.0 <= stats["uptime_seconds"] < 60.0
    assert stats["rss_bytes"] == process_rss_bytes()


def test_rss_is_positive_bytes():
    rss = process_rss_bytes()
    assert rss > 0
    if sys.platform.startswith("linux"):
        assert rss % 1024 == 0  # ru_maxrss counts kibibytes on Linux
