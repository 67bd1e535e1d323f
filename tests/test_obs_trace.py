"""Tests for the tracing core: spans, context propagation, the bounded
store, the wire header, and the distributed worker's group traces."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.distributed import Coordinator, DistributedWorker, SweepSpec
from repro.obs.trace import (
    TRACE_HEADER,
    Span,
    TraceStore,
    Tracer,
    current_span,
    current_trace_id,
    format_trace_header,
    get_tracer,
    new_span_id,
    new_trace_id,
    parse_trace_header,
    set_tracer,
)
from repro.runtime import ExperimentResult


class FakeClock:
    """Deterministic monotonic-ns source."""

    def __init__(self, start: int = 1_000_000):
        self.now = start

    def __call__(self) -> int:
        self.now += 1_000  # every read advances 1µs: spans never zero-width
        return self.now


class TestIdsAndHeader:
    def test_ids_are_hex_of_the_wire_width(self):
        assert len(new_trace_id()) == 32
        assert len(new_span_id()) == 16
        int(new_trace_id(), 16)
        int(new_span_id(), 16)

    def test_header_round_trip(self):
        span = Span(new_trace_id(), new_span_id(), None, "root", 1)
        value = format_trace_header(span)
        assert parse_trace_header(value) == (span.trace_id, span.span_id)

    @pytest.mark.parametrize("garbage", [
        None, "", "nonsense", "a" * 32, f"{'a' * 32}-{'b' * 15}",
        f"{'a' * 31}-{'b' * 16}", f"{'g' * 32}-{'b' * 16}",
        f"{'a' * 32}_{'b' * 16}",
    ])
    def test_garbage_headers_parse_to_none(self, garbage):
        assert parse_trace_header(garbage) is None

    def test_header_name_is_stable(self):
        # The wire contract clients and the CI smoke job rely on.
        assert TRACE_HEADER == "X-Repro-Trace"


class TestTracerSpans:
    def test_context_manager_spans_nest(self):
        tracer = Tracer(clock_ns=FakeClock())
        with tracer.span("outer") as outer:
            assert current_span() is outer
            assert current_trace_id() == outer.trace_id
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        assert current_span() is None
        trace = tracer.store.get(outer.trace_id)
        assert [span["name"] for span in trace["spans"]] == ["outer", "inner"]
        assert trace["status"] == "ok"
        assert trace["duration_ms"] > 0.0

    def test_exception_marks_error_status(self):
        tracer = Tracer(clock_ns=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom") as span:
                raise RuntimeError("nope")
        assert tracer.store.get(span.trace_id)["status"] == "error"

    def test_explicit_parent_threading(self):
        # The selector-loop form: no contextvars, spans threaded by hand.
        tracer = Tracer(clock_ns=FakeClock())
        root = tracer.start_trace("predict", attrs={"model": "demo"})
        child = tracer.start_span("compute", parent=root)
        tracer.end(child)
        tracer.end(root)
        trace = tracer.store.get(root.trace_id)
        spans = {span["name"]: span for span in trace["spans"]}
        assert spans["compute"]["parent_id"] == root.span_id
        assert spans["predict"]["attrs"] == {"model": "demo"}

    def test_remote_parent_continues_the_trace(self):
        tracer = Tracer(clock_ns=FakeClock())
        trace_id, parent_id = new_trace_id(), new_span_id()
        root = tracer.start_trace("predict", trace_id=trace_id,
                                  parent_id=parent_id)
        assert root.trace_id == trace_id
        assert root.parent_id == parent_id

    def test_add_span_records_and_guards_bad_timestamps(self):
        tracer = Tracer(clock_ns=FakeClock())
        root = tracer.start_trace("predict")
        good = tracer.add_span("queue", parent=root,
                               start_ns=10_000, end_ns=20_000)
        assert good.duration_ms == pytest.approx(0.01)
        # Unset or inverted timestamps drop the span, never raise.
        assert tracer.add_span("batch", parent=root,
                               start_ns=0, end_ns=5) is None
        assert tracer.add_span("batch", parent=root,
                               start_ns=10, end_ns=5) is None
        tracer.end(root)
        names = [span["name"]
                 for span in tracer.store.get(root.trace_id)["spans"]]
        assert names == ["predict", "queue"]

    def test_end_is_idempotent(self):
        tracer = Tracer(clock_ns=FakeClock())
        root = tracer.start_trace("predict")
        tracer.end(root, status="error")
        first_end = root.end_ns
        tracer.end(root)  # defensive double-end: no-op
        assert root.end_ns == first_end
        assert root.status == "error"
        assert tracer.counters()["traces_finished"] == 1

    def test_spans_feed_stage_histograms(self):
        tracer = Tracer(clock_ns=FakeClock())
        root = tracer.start_trace("predict")
        tracer.add_span("compute", parent=root,
                        start_ns=1, end_ns=2_000_001)  # 2ms
        tracer.end(root)
        export = tracer.stages.export()
        assert export["compute"]["count"] == 1
        assert export["compute"]["sum"] == pytest.approx(2e-3)
        assert "predict" in export

    def test_active_cap_flushes_oldest_as_incomplete(self):
        tracer = Tracer(clock_ns=FakeClock(), max_active=2)
        first = tracer.start_trace("a")
        tracer.start_trace("b")
        tracer.start_trace("c")  # evicts the never-finished "a"
        assert tracer.active_count() == 2
        flushed = tracer.store.get(first.trace_id)
        assert flushed["incomplete"] is True
        assert tracer.counters()["traces_flushed"] == 1

    def test_straggler_span_after_export_is_dropped(self):
        tracer = Tracer(clock_ns=FakeClock())
        root = tracer.start_trace("predict")
        tracer.end(root)
        tracer.add_span("late", parent=root, start_ns=1, end_ns=2)
        names = [span["name"]
                 for span in tracer.store.get(root.trace_id)["spans"]]
        assert names == ["predict"]

    def test_thread_safety_under_concurrent_traces(self):
        tracer = Tracer(clock_ns=FakeClock())  # shared unlocked clock is fine
        errors = []

        def hammer(worker: int):
            try:
                for _ in range(50):
                    with tracer.span(f"root-{worker}"):
                        with tracer.span("child"):
                            pass
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        counters = tracer.counters()
        assert counters["traces_started"] == 400
        assert counters["traces_finished"] == 400
        assert counters["traces_active"] == 0
        assert len(tracer.store) == tracer.store.capacity

    def test_global_tracer_is_lazy_and_replaceable(self):
        try:
            set_tracer(None)
            first = get_tracer()
            assert get_tracer() is first
            mine = Tracer()
            set_tracer(mine)
            assert get_tracer() is mine
        finally:
            set_tracer(None)


class TestTraceStore:
    def test_ring_evicts_oldest(self):
        store = TraceStore(capacity=2)
        for index in range(3):
            store.add({"trace_id": f"t{index}", "root": "r", "span_count": 1,
                       "duration_ms": 1.0, "status": "ok", "spans": []})
        assert len(store) == 2
        assert store.get("t0") is None
        assert [row["trace_id"] for row in store.recent()] == ["t2", "t1"]

    def test_duplicate_id_merges_spans(self):
        # The failover shape: a proxied trace finished on the relay first,
        # then the local fallback adds its own spans under the same id.
        store = TraceStore()
        store.add({"trace_id": "t", "root": "predict", "span_count": 1,
                   "duration_ms": 1.0, "status": "ok",
                   "spans": [{"span_id": "a"}]})
        store.add({"trace_id": "t", "root": "predict", "span_count": 1,
                   "duration_ms": 2.0, "status": "ok",
                   "spans": [{"span_id": "b"}]})
        merged = store.get("t")
        assert merged["span_count"] == 2
        assert [span["span_id"] for span in merged["spans"]] == ["a", "b"]
        assert len(store) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)


class _TracedStubRunner:
    """Deterministic runner; also proves cell spans wrap runner calls."""

    def __call__(self, cell):
        assert current_span() is not None
        assert current_span().name == "cell.run"
        score = float(np.random.default_rng(cell.seed).random())
        return ExperimentResult(method=cell.method, dataset=cell.dataset,
                                epsilon=cell.epsilon, repeat=cell.repeat,
                                micro_f1=score)


class TestWorkerTraces:
    def test_worker_emits_one_trace_per_group(self, tmp_path):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            coordinator = Coordinator(tmp_path / "q")
            coordinator.submit(SweepSpec(methods=("m1",), datasets=("d1",),
                                         epsilons=(0.5, 1.0), repeats=1))
            report = DistributedWorker(
                tmp_path / "q", "w1",
                cell_runner=_TracedStubRunner()).run()
            assert report.groups_completed == 1
            traces = [tracer.store.get(row["trace_id"])
                      for row in tracer.store.recent()]
            groups = [t for t in traces if t["root"] == "dist.group"]
            assert len(groups) == 1
            names = [span["name"] for span in groups[0]["spans"]]
            assert names[0] == "dist.group"
            assert "lease.claim" in names
            assert "group.run" in names
            assert names.count("cell.run") == 2
            assert "shard.publish" in names
            root = groups[0]["spans"][0]
            assert root["attrs"]["outcome"] == "completed"
            assert root["attrs"]["worker_id"] == "w1"
            assert groups[0]["status"] == "ok"
        finally:
            set_tracer(None)

    def test_failed_group_traces_record_the_outcome(self, tmp_path):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            coordinator = Coordinator(tmp_path / "q")
            coordinator.submit(SweepSpec(methods=("m1",), datasets=("d1",),
                                         epsilons=(0.5,), repeats=1))

            def exploding(cell):
                raise RuntimeError("cell exploded")

            report = DistributedWorker(tmp_path / "q", "w1", max_groups=1,
                                       cell_runner=exploding,
                                       wait_for_completion=False).run()
            # max_attempts failures, the last one quarantining the group.
            assert report.groups_failed == 3
            assert report.groups_quarantined == 1
            outcomes = [tracer.store.get(row["trace_id"])["spans"][0]
                        ["attrs"].get("outcome")
                        for row in tracer.store.recent()]
            assert outcomes.count("failed") == 2
            assert outcomes.count("quarantined") == 1
            statuses = [tracer.store.get(row["trace_id"])["status"]
                        for row in tracer.store.recent()]
            assert set(statuses) == {"error"}
        finally:
            set_tracer(None)
