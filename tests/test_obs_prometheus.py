"""Tests for Prometheus exposition: render, strict parse, round-trip, the
latency bucket an external SLO rule reads, and trace tree rendering."""

from __future__ import annotations

import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.aggregate import render_trace_list, render_trace_tree
from repro.obs.prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRenderer,
    escape_label_value,
    format_le,
    histogram_series,
    parse_prometheus_text,
    render_server_metrics,
)
from repro.obs.trace import Tracer
from repro.serving.metrics import LATENCY_BUCKETS, Histogram, ServingMetrics


def _snapshot(histogram: Histogram) -> dict:
    return histogram.snapshot()


class _Stats:
    requests = rows_requested = batches = 0
    matmuls = coalesced_requests = 0


class _Batcher:
    stats = _Stats()


class _Service:
    """The slice of ``InferenceService`` the ``/metrics`` renderer reads,
    for a service that has seen no traffic but what a test records."""

    def __init__(self):
        self.metrics = ServingMetrics()
        self.batcher = _Batcher()
        self.shed_counts = {}
        self.cache_stats = {"feature_hits": 3, "feature_misses": 1}
        self.started_at = 0.0

    @staticmethod
    def loaded_digests():
        return ["d" * 64]


class TestRenderer:
    def test_counter_gauge_histogram_families(self):
        out = MetricsRenderer()
        out.counter("repro_requests_total", 7, "Requests.")
        out.gauge("repro_sessions_loaded", 2, "Sessions.")
        hist = Histogram(bounds=(0.01, 0.1))
        hist.observe(0.005)
        hist.observe(0.5)
        out.histogram("repro_latency_seconds", _snapshot(hist), "Latency.",
                      {"model": "demo"})
        text = out.render()
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_sessions_loaded gauge" in text
        assert "# TYPE repro_latency_seconds histogram" in text
        # Cumulative buckets end at +Inf == _count.
        assert 'le="+Inf"} 2' in text
        assert "repro_latency_seconds_count{model=\"demo\"} 2" in text

    def test_help_type_emitted_once_per_family(self):
        out = MetricsRenderer()
        out.counter("repro_x_total", 1, "X.", {"model": "a"})
        out.counter("repro_x_total", 2, "X.", {"model": "b"})
        text = out.render()
        assert text.count("# HELP repro_x_total") == 1
        assert text.count("# TYPE repro_x_total") == 1

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError):
            MetricsRenderer().counter("bad name", 1, "nope")

    def test_label_escaping_round_trips(self):
        # The second name is a backslash then "n": escaped to two
        # backslashes then "n", which must not unescape to a newline.
        for tricky in ('demo"with\\quotes\nand newline', "a\\nb"):
            assert '"' not in escape_label_value(tricky).replace('\\"', "")
            out = MetricsRenderer()
            out.counter("repro_x_total", 1, "X.", {"model": tricky})
            samples = parse_prometheus_text(out.render())
            assert samples == [("repro_x_total", {"model": tricky}, 1.0)]

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{0,8}",
                                         fullmatch=True),
                           st.text(), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=2 ** 53))
    def test_label_values_round_trip(self, labels, value):
        """Render then parse returns every label value exactly, whatever
        text it holds, with several labels on one sample."""
        out = MetricsRenderer()
        out.gauge("repro_x", value, "X.", labels)
        out.counter("repro_y_total", value, "Y.", labels)
        assert parse_prometheus_text(out.render()) == [
            ("repro_x", labels, float(value)),
            ("repro_y_total", labels, float(value))]

    @pytest.mark.parametrize("value, text", [
        (True, "1"), (False, "0"), (7, "7"),
        (2 ** 53, "9007199254740992"),  # an int is never rounded via float
        (0.25, "0.25"),
    ])
    def test_sample_values_render_exactly(self, value, text):
        out = MetricsRenderer()
        out.gauge("repro_x", value, "X.")
        assert out.render().splitlines()[-1] == f"repro_x {text}"
        assert parse_prometheus_text(out.render()) == [
            ("repro_x", {}, float(value))]

    @pytest.mark.parametrize("raw, escaped", [
        ("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"),
        ("\t", "\t"),  # only backslash, quote and newline are escaped
    ])
    def test_escape_label_value(self, raw, escaped):
        assert escape_label_value(raw) == escaped

    def test_histogram_lines_are_cumulative_with_le_last(self):
        hist = Histogram(bounds=(0.01, 0.1))
        for value in (0.005, 0.05, 0.05, 5.0):
            hist.observe(value)
        out = MetricsRenderer()
        out.histogram("m", _snapshot(hist), "M.", {"model": "demo"})
        assert out.render().splitlines()[2:] == [
            'm_bucket{model="demo",le="0.01"} 1',
            'm_bucket{model="demo",le="0.1"} 3',
            'm_bucket{model="demo",le="+Inf"} 4',
            'm_sum{model="demo"} 5.105',
            'm_count{model="demo"} 4',
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=2,
                    max_size=8),
           st.floats(min_value=0.0, max_value=1e6))
    def test_histogram_round_trips_raw_counts(self, counts, total):
        """Render then ``histogram_series`` gives back the raw bucket
        counts, the bounds, the sum and the count of any snapshot."""
        bounds = tuple(float(2 ** i) for i in range(len(counts) - 1))
        out = MetricsRenderer()
        out.histogram("m", {"bounds": bounds, "counts": tuple(counts),
                            "sum": total, "count": sum(counts)},
                      "M.", {"model": "demo"})
        series = histogram_series(parse_prometheus_text(out.render()), "m")
        assert series == {(("model", "demo"),): {
            "bounds": list(bounds), "counts": counts, "sum": total,
            "count": sum(counts)}}

    def test_format_le_round_trips_through_float(self):
        for edge in LATENCY_BUCKETS:
            assert float(format_le(edge)) == edge

    def test_content_type_names_the_exposition_version(self):
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


class TestParser:
    def test_parses_values_and_labels(self):
        samples = parse_prometheus_text(
            "# HELP x X.\n# TYPE x counter\n"
            'x{a="1",b="two"} 3\n'
            "y 4.5\n\n"
            'z{ a="1" , b="2" ,} 5\n')
        assert samples == [("x", {"a": "1", "b": "two"}, 3.0),
                          ("y", {}, 4.5),
                          ("z", {"a": "1", "b": "2"}, 5.0)]

    @pytest.mark.parametrize("bad", [
        "x{unterminated 3",
        "x{a=unquoted} 3",
        "just some words here",
        "x notanumber",
        # Labels follow one another from the brace, comma-separated.
        'm{a="1" JUNK b="2"} 3',
        'm{a="1"b="2"} 3',
        'm{JUNK a="1"} 3',
        'm{a="1",,} 3',
        'm{,} 3',
        'm{a="\\t"} 3',  # not one of the three escapes
        'm{a="1",a="2"} 3',  # a label name at most once per sample
        'm{1a="x"} 3',  # names start with a letter or underscore
        "1m 3",
        "m{a='1'} 3",  # values are double-quoted
        'm{a="1"}3',  # blanks separate the value
        'm{a="1"} 3 tomorrow',  # a timestamp is an integer
    ])
    def test_malformed_lines_raise(self, bad):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    @pytest.mark.parametrize("text, value", [
        ("+Inf", math.inf), ("-Inf", -math.inf), ("NaN", math.nan),
        ("1.5e-3", 0.0015),
    ])
    def test_special_and_exponent_values(self, text, value):
        ((_name, _labels, parsed),) = parse_prometheus_text(f"x {text}")
        assert parsed == value or (math.isnan(parsed) and math.isnan(value))

    def test_timestamp_is_accepted_and_dropped(self):
        assert parse_prometheus_text('x{a="1"} 3 1700000000000') == [
            ("x", {"a": "1"}, 3.0)]

    def test_empty_braces_are_an_empty_label_set(self):
        assert parse_prometheus_text("m{} 3") == [("m", {}, 3.0)]

    def test_crlf_line_endings_parse(self):
        """Lines split on "\\n" only; the "\\r" of a CRLF page is trimmed."""
        assert parse_prometheus_text('# TYPE x counter\r\nx 3\r\n'
                                     'y{a="1"} 4\r\n') == [
            ("x", {}, 3.0), ("y", {"a": "1"}, 4.0)]

    def test_comments_may_hold_anything(self):
        assert parse_prometheus_text(
            '# not {a="sample"\n#\n  # indented\n \t\nx 1\n') == [
            ("x", {}, 1.0)]

    def test_histogram_series_decumulates(self):
        hist = Histogram(bounds=(0.01, 0.1))
        for value in (0.005, 0.05, 0.05, 5.0):
            hist.observe(value)
        out = MetricsRenderer()
        out.histogram("m", _snapshot(hist), "M.", {"model": "demo"})
        series = histogram_series(parse_prometheus_text(out.render()), "m")
        (key, data), = series.items()
        assert dict(key) == {"model": "demo"}
        assert data["bounds"] == [0.01, 0.1]
        assert data["counts"] == [1, 2, 1]  # raw again, overflow included
        assert data["count"] == 4
        assert data["sum"] == pytest.approx(5.105)

    def test_histogram_series_requires_inf_and_monotonicity(self):
        with pytest.raises(ValueError, match=r"\+Inf"):
            histogram_series([("m_bucket", {"le": "0.1"}, 1.0)], "m")
        with pytest.raises(ValueError, match="non-monotone"):
            histogram_series([("m_bucket", {"le": "0.1"}, 5.0),
                              ("m_bucket", {"le": "+Inf"}, 3.0)], "m")

    def test_histogram_series_requires_le_on_buckets(self):
        with pytest.raises(ValueError, match="without le"):
            histogram_series([("m_bucket", {"model": "a"}, 1.0)], "m")

    def test_histogram_series_defaults_sum_and_count(self):
        """Without ``_sum`` and ``_count`` samples the sum is 0 and the
        count is the ``+Inf`` bucket."""
        series = histogram_series([("m_bucket", {"le": "+Inf"}, 5.0),
                                   ("m_bucket", {"le": "0.1"}, 2.0)], "m")
        assert series == {(): {"bounds": [0.1], "counts": [2, 3],
                               "sum": 0.0, "count": 5.0}}

    def test_histogram_series_keys_by_labels_and_skips_other_metrics(self):
        out = MetricsRenderer()
        for model, value in (("a", 0.005), ("b", 0.5)):
            hist = Histogram(bounds=(0.01, 0.1))
            hist.observe(value)
            out.histogram("m", _snapshot(hist), "M.", {"model": model})
        out.counter("m_total", 9, "Not a histogram.")
        out.histogram("n", _snapshot(Histogram(bounds=(1.0,))), "N.")
        series = histogram_series(parse_prometheus_text(out.render()), "m")
        assert {key: data["counts"] for key, data in series.items()} == {
            (("model", "a"),): [1, 0, 0], (("model", "b"),): [0, 0, 1]}


class TestServerPage:
    def test_render_server_metrics_parses_clean(self):
        """The renderer's full page is valid exposition text end to end,
        even against a stub service that never saw traffic."""
        service = _Service()
        service.metrics.observe_queue_depth("demo", 4)
        tracer = Tracer()
        with tracer.span("predict"):
            pass
        text = render_server_metrics(service, tracer=tracer)
        samples = parse_prometheus_text(text)
        names = {name for name, _labels, _value in samples}
        assert "repro_requests_total" in names
        assert "repro_feature_cache_hits_total" in names
        assert "repro_uptime_seconds" in names
        assert "repro_stage_duration_seconds_bucket" in names
        assert "repro_traces_active" in names
        # Families are contiguous blocks: each family header appears once.
        assert text.count("# TYPE repro_queue_depth histogram") == 1


class TestSloRuleInputs:
    """The server judges no SLO: an external rule reads good requests off
    the cumulative ``repro_request_latency_seconds`` bucket at the target
    and the total off ``_count`` (``docs/observability.md``)."""

    LATENCIES = [1e-4 * 1.3 ** i for i in range(40)]  # 0.1 ms .. ~2.8 s

    @staticmethod
    def _edge(target: float) -> float:
        """The largest exported bucket edge at or under ``target``."""
        return LATENCY_BUCKETS[bisect_right(LATENCY_BUCKETS, target) - 1]

    def _good_and_total(self, service, target: float) -> tuple[float, float]:
        page = {(name, labels.get("le")): value
                for name, labels, value
                in parse_prometheus_text(render_server_metrics(service))
                if labels.get("model") == "m"}
        return (page[("repro_request_latency_seconds_bucket",
                      format_le(self._edge(target)))],
                page[("repro_request_latency_seconds_count", None)])

    @pytest.mark.parametrize("target", [0.005, 0.050, 0.250])
    def test_target_bucket_counts_the_requests_within_it(self, target):
        service = _Service()
        latency = service.metrics.model("m").latency
        for value in self.LATENCIES:
            latency.observe(value)
        good, total = self._good_and_total(service, target)
        edge = self._edge(target)
        assert good == sum(value <= edge for value in self.LATENCIES)
        assert 0 < good < total
        assert total == len(self.LATENCIES)

    def test_burn_rate_over_two_scrapes(self):
        """Objective 90 % within 50 ms: 80 fast and 20 slow requests
        between two scrapes burn the error budget at 2x."""
        service = _Service()
        latency = service.metrics.model("m").latency
        for _ in range(50):
            latency.observe(0.001)
        good0, total0 = self._good_and_total(service, 0.050)
        for value in [0.001] * 80 + [0.200] * 20:
            latency.observe(value)
        good1, total1 = self._good_and_total(service, 0.050)
        assert (good1 - good0, total1 - total0) == (80, 100)
        burn = (1 - (good1 - good0) / (total1 - total0)) / (1 - 0.9)
        assert burn == pytest.approx(2.0)


class TestTraceRendering:
    def test_tree_nests_by_parent_links(self):
        spans = [
            {"trace_id": "t" * 32, "span_id": "root0000root0000",
             "parent_id": None, "name": "predict", "start_ns": 1,
             "duration_ms": 5.0, "status": "ok",
             "attrs": {"model": "demo"}},
            {"trace_id": "t" * 32, "span_id": "child000child000",
             "parent_id": "root0000root0000", "name": "compute",
             "start_ns": 2, "duration_ms": 3.0, "status": "ok",
             "attrs": {"rows": 4}},
            {"trace_id": "t" * 32, "span_id": "orphan00orphan00",
             "parent_id": "missing0missing0", "name": "remote",
             "start_ns": 3, "duration_ms": 1.0, "status": "error",
             "attrs": {}},
        ]
        text = render_trace_tree(spans)
        lines = text.splitlines()
        assert "3 spans" in lines[0]
        predict = next(line for line in lines if "predict" in line)
        compute = next(line for line in lines if "compute" in line)
        assert "model=demo" in predict
        assert "rows=4" in compute
        # The child is indented under its parent; the orphan is promoted
        # to a root and carries its non-ok status.
        assert compute.index("compute") > predict.index("predict")
        assert "[error]" in next(line for line in lines if "remote" in line)

    def test_empty_inputs_have_friendly_renderings(self):
        assert render_trace_tree([]) == "trace has no spans"
        assert render_trace_list([]) == "no traces recorded"

    def test_list_renders_rows(self):
        text = render_trace_list([
            {"trace_id": "t1", "root": "predict", "span_count": 3,
             "duration_ms": 1.25},
        ])
        assert "t1" in text and "predict" in text and "1.250" in text
