"""Serving-path throughput and latency: micro-batching versus per-request.

The serving subsystem's pitch is that coalescing queries into one stacked
``aggregated @ theta`` matmul per model amortises the per-call overhead that
dominates single-row inference.  This benchmark publishes one GCON release
into a temporary registry, warms the propagated-feature cache, and measures
the *data plane only* (no HTTP, no threads — deterministic on a 1-core CI
runner):

* **per-request**: N single-node queries, each its own matmul — the
  no-batching baseline;
* **micro-batched**: the same N queries coalesced into batches of B through
  the exact `MicroBatcher.run_once` path the server uses.

Two assertions always run: (1) every configuration returns scores bitwise
identical to offline ``GCON.decision_scores``; (2) on a warm cache,
micro-batching beats one-matmul-per-request throughput.  The second claim is
about call overhead, not parallelism, so it holds on a single core and is
asserted in smoke mode too.

``REPRO_SMOKE=1`` (or ``pytest --smoke``) shrinks the model and query count.
"""

from __future__ import annotations

import gc
import json
import threading
import time

import numpy as np

from benchmarks.conftest import bench_settings, is_smoke, record
from repro.core.model import GCON
from repro.evaluation.figures import default_gcon_config
from repro.evaluation.reporting import render_table
from repro.graphs.datasets import load_dataset
from repro.serving import (
    InferenceService,
    MicroBatcher,
    ModelRegistry,
    OverloadedError,
    serve_http,
)

BATCH_SIZES = (4, 16, 64, 256)
REPETITIONS = 3


def _publish_model(settings, registry_root):
    graph = load_dataset(settings.datasets[0], scale=settings.scale,
                         seed=settings.seed)
    delta = 1.0 / max(graph.num_edges, 1)
    model = GCON(default_gcon_config(2.0, delta, settings))
    model.fit(graph, seed=settings.seed)
    registry = ModelRegistry(registry_root)
    registry.publish(model, "bench", inference_mode="private",
                     training={"dataset": settings.datasets[0],
                               "scale": settings.scale,
                               "graph_seed": settings.seed})
    return registry, graph, model


def _per_request_seconds(service, key, nodes) -> float:
    best = float("inf")
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        for node in nodes:
            service.batcher.submit(key, [node])
            service.batcher.run_once()
        best = min(best, time.perf_counter() - start)
    return best


def _batched_seconds(service, key, nodes, batch_size) -> float:
    best = float("inf")
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        for offset in range(0, len(nodes), batch_size):
            for node in nodes[offset:offset + batch_size]:
                service.batcher.submit(key, [node])
            service.batcher.run_once()
        best = min(best, time.perf_counter() - start)
    return best


def _run(settings, registry_root):
    registry, graph, model = _publish_model(settings, registry_root)
    service = InferenceService(registry, graph=graph)
    num_queries = 256 if is_smoke() else 2048
    rng = np.random.default_rng(settings.seed)
    nodes = rng.integers(0, graph.num_nodes, size=num_queries).tolist()

    offline = model.decision_scores(graph, mode="private")
    key, _session = service._session("bench@latest", None)  # warm the cache

    # Correctness: a served batch is bitwise identical to offline scores.
    probe = nodes[:32]
    assert np.array_equal(service.predict_scores("bench", probe), offline[probe])
    single = service.predict_scores("bench", [nodes[0]])
    assert np.array_equal(single, offline[[nodes[0]]])

    per_request = _per_request_seconds(service, key, nodes)
    batched = {size: _batched_seconds(service, key, nodes, size)
               for size in BATCH_SIZES}
    return {
        "num_queries": num_queries,
        "per_request_seconds": per_request,
        "batched_seconds": batched,
        "stats": service.stats(),
    }


def test_serving_microbatch_throughput(benchmark, tmp_path):
    settings = bench_settings(datasets=("cora_ml",))
    outcome = benchmark.pedantic(_run, args=(settings, tmp_path / "registry"),
                                 rounds=1, iterations=1)

    queries = outcome["num_queries"]
    per_request = outcome["per_request_seconds"]
    rows = [["per-request (batch=1)", f"{per_request * 1e3:.1f}",
             f"{queries / per_request:,.0f}", "-"]]
    for size, seconds in outcome["batched_seconds"].items():
        rows.append([f"micro-batch B={size}", f"{seconds * 1e3:.1f}",
                     f"{queries / seconds:,.0f}",
                     f"{per_request / seconds:.2f}x"])
    record("serving_microbatch",
           render_table(
               ["configuration", f"total ms ({queries} queries)",
                "queries/s", "speedup"],
               rows, title="warm-cache serving throughput vs micro-batch size"))

    # The acceptance claim: on a warm cache, micro-batching beats
    # one-matmul-per-request throughput.  This is call-overhead amortisation,
    # not parallelism, so no core-count gate — but only the best batched
    # configuration is pinned, with headroom for scheduler noise.
    best_batched = min(outcome["batched_seconds"].values())
    assert best_batched < per_request, (
        f"micro-batching ({best_batched:.4f}s) did not beat per-request "
        f"({per_request:.4f}s) on a warm cache")

    # The feature cache did its job: propagation ran once, not per query.
    cache = outcome["stats"]["feature_cache"]
    assert cache["feature_misses"] == 1


# --------------------------------------------------------------------------- #
# two-model contention: per-model queues kill head-of-line blocking
# --------------------------------------------------------------------------- #
def _publish_two_models(settings, registry_root):
    graph = load_dataset(settings.datasets[0], scale=settings.scale,
                         seed=settings.seed)
    delta = 1.0 / max(graph.num_edges, 1)
    registry = ModelRegistry(registry_root)
    training = {"dataset": settings.datasets[0], "scale": settings.scale,
                "graph_seed": settings.seed}
    models = {}
    for name, epsilon in (("alpha", 2.0), ("beta", 0.5)):
        model = GCON(default_gcon_config(epsilon, delta, settings))
        model.fit(graph, seed=settings.seed)
        registry.publish(model, name, inference_mode="private",
                         training=training)
        models[name] = model
    return registry, graph, models


def _measure_b_latencies(plane, beta_key, nodes, offline, spacing):
    """Singleton beta queries through ``plane``; per-query wall latency."""
    latencies = []
    for node in nodes:
        start = time.perf_counter()
        scores = plane.predict_scores(beta_key, [node], timeout=30.0)
        latencies.append(time.perf_counter() - start)
        assert np.array_equal(scores, offline[[node]]), \
            "served beta scores != offline decision_scores"
        time.sleep(spacing)
    return latencies


def _saturate(plane, alpha_key, hammer_nodes, stop):
    while not stop.is_set():
        plane.predict_scores(alpha_key, hammer_nodes, timeout=30.0)


def _contention_phase(plane, alpha_key, beta_key, nodes, offline, *,
                      spacing, hammer_nodes, hammer_threads=2):
    """Solo then contended beta latencies against one started data plane."""
    solo = _measure_b_latencies(plane, beta_key, nodes, offline, spacing)
    stop = threading.Event()
    hammers = [threading.Thread(target=_saturate,
                                args=(plane, alpha_key, hammer_nodes, stop),
                                daemon=True)
               for _ in range(hammer_threads)]
    for thread in hammers:
        thread.start()
    time.sleep(spacing * 5)  # let the alpha load actually build up
    try:
        contended = _measure_b_latencies(plane, beta_key, nodes, offline,
                                         spacing)
    finally:
        stop.set()
        for thread in hammers:
            thread.join()
    return solo, contended


def _run_contention(settings, registry_root):
    registry, graph, models = _publish_two_models(settings, registry_root)
    service = InferenceService(registry, graph=graph,
                               max_batch_size=64, max_latency=0.002)
    alpha_key, _ = service._session("alpha", None)
    beta_key, _ = service._session("beta", None)
    offline_beta = models["beta"].decision_scores(graph, mode="private")

    # "Model A is saturated" is emulated by inflating alpha's compute cost
    # (time.sleep releases the GIL, so the contrast survives a 1-core
    # runner): what matters is the *queueing* structure, and the real
    # stacked matmul still runs so every answer stays bitwise checked.
    alpha_delay = 0.015 if is_smoke() else 0.03
    num_queries = 20 if is_smoke() else 60
    spacing = 0.001
    real_compute = service._score_rows

    def contended_compute(model_key, nodes):
        if model_key == alpha_key:
            time.sleep(alpha_delay)
        return real_compute(model_key, nodes)

    rng = np.random.default_rng(settings.seed)
    nodes = rng.integers(0, graph.num_nodes, size=num_queries).tolist()
    hammer_nodes = rng.integers(0, graph.num_nodes, size=16).tolist()

    # New data plane: the service's own per-model router (sessions are warm,
    # so queues created from here on pick up the wrapped compute).
    service.batcher._compute = contended_compute
    with service.batcher as router:
        router_solo, router_contended = _contention_phase(
            router, alpha_key, beta_key, nodes, offline_beta,
            spacing=spacing, hammer_nodes=hammer_nodes)
    stats = service.stats()

    # Reference data plane: the PR 4 single shared queue, same compute —
    # beta's tickets share alpha's forming batch, deadline and dispatch.
    with MicroBatcher(contended_compute, max_batch_size=64,
                      max_latency=0.002) as legacy:
        legacy_solo, legacy_contended = _contention_phase(
            legacy, alpha_key, beta_key, nodes, offline_beta,
            spacing=spacing, hammer_nodes=hammer_nodes)

    def summary(latencies):
        return {"p50": float(np.percentile(latencies, 50)),
                "p99": float(np.percentile(latencies, 99))}

    return {
        "num_queries": num_queries,
        "alpha_delay": alpha_delay,
        "router": {"solo": summary(router_solo),
                   "contended": summary(router_contended)},
        "legacy": {"solo": summary(legacy_solo),
                   "contended": summary(legacy_contended)},
        "stats": stats,
    }


def test_two_model_contention_no_head_of_line_blocking(benchmark, tmp_path):
    settings = bench_settings(datasets=("cora_ml",))
    outcome = benchmark.pedantic(_run_contention,
                                 args=(settings, tmp_path / "registry"),
                                 rounds=1, iterations=1)

    rows = []
    for plane in ("router", "legacy"):
        for phase in ("solo", "contended"):
            entry = outcome[plane][phase]
            rows.append([f"{plane} / model B {phase}",
                         f"{entry['p50'] * 1e3:.2f}",
                         f"{entry['p99'] * 1e3:.2f}"])
    record("serving_contention",
           render_table(
               ["configuration", "p50 ms", "p99 ms"],
               rows,
               title=f"model-B latency under model-A saturation "
                     f"({outcome['num_queries']} queries, alpha matmul "
                     f"+{outcome['alpha_delay'] * 1e3:.0f}ms)"))

    router_solo = outcome["router"]["solo"]["p99"]
    router_contended = outcome["router"]["contended"]["p99"]
    legacy_contended = outcome["legacy"]["contended"]["p99"]

    # The head-of-line claim, structurally: on the shared queue, beta's p99
    # absorbs at least one alpha matmul; on per-model queues it does not.
    assert legacy_contended >= outcome["alpha_delay"], (
        f"legacy plane should show head-of-line blocking, got "
        f"{legacy_contended * 1e3:.2f}ms p99")
    assert router_contended < legacy_contended * 0.5, (
        f"per-model routing did not beat the shared queue: "
        f"{router_contended * 1e3:.2f}ms vs {legacy_contended * 1e3:.2f}ms p99")
    # And beta stays flat: contended p99 within generous noise of solo
    # (scheduler jitter on a loaded 1-core runner, never an alpha matmul).
    assert router_contended <= max(4 * router_solo,
                                   router_solo + 0.020), (
        f"model-B p99 moved under model-A load: solo "
        f"{router_solo * 1e3:.2f}ms, contended {router_contended * 1e3:.2f}ms")

    # /stats carries the per-model histograms the operator would read.
    labels = [label for label in outcome["stats"]["models"]
              if label.startswith("beta@")]
    assert labels, "per-model stats must name the beta model"
    latency = outcome["stats"]["models"][labels[0]]["latency_ms"]
    assert latency["count"] >= 2 * outcome["num_queries"]
    assert {"p50", "p95", "p99"} <= set(latency)


# --------------------------------------------------------------------------- #
# overload: bounded queues answer with 429s instead of unbounded latency
# --------------------------------------------------------------------------- #
def _run_overload(settings, registry_root):
    registry, graph, model = _publish_model(settings, registry_root)
    offline = model.decision_scores(graph, mode="private")
    max_queue_depth = 8
    burst = 48 if is_smoke() else 96
    flush_delay = 0.005
    service = InferenceService(registry, graph=graph, max_batch_size=4,
                               max_latency=0.0,
                               max_queue_depth=max_queue_depth)
    # Inflate the per-flush cost (sleep releases the GIL) so a back-to-back
    # burst outruns the drain rate; the real matmul still runs, so every
    # accepted request stays bitwise checked.
    real_compute = service._score_rows

    def slow_compute(model_key, rows):
        time.sleep(flush_delay)
        return real_compute(model_key, rows)

    service.batcher._compute = slow_compute
    service._session("bench@latest", None)  # warm before the clock starts
    rng = np.random.default_rng(settings.seed)
    nodes = rng.integers(0, graph.num_nodes, size=burst).tolist()
    accepted, shed, retry_hints = [], 0, []
    with service.batcher:
        start = time.perf_counter()
        for node in nodes:
            try:
                ticket, _record, _mode = service.submit_batch("bench", [node])
                accepted.append((node, ticket))
            except OverloadedError as error:
                shed += 1
                retry_hints.append(error.retry_after)
        submit_elapsed = time.perf_counter() - start
        for node, ticket in accepted:
            assert np.array_equal(ticket.result(30.0), offline[[node]]), \
                "accepted request served non-offline scores"
    stats = service.stats()
    service.close()
    return {
        "burst": burst,
        "max_queue_depth": max_queue_depth,
        "accepted": len(accepted),
        "shed": shed,
        "retry_hints": retry_hints,
        "submit_elapsed": submit_elapsed,
        "admission": stats["admission"],
    }


def test_overload_is_answered_with_shedding_not_queueing(benchmark, tmp_path):
    settings = bench_settings(datasets=("cora_ml",))
    outcome = benchmark.pedantic(_run_overload,
                                 args=(settings, tmp_path / "registry"),
                                 rounds=1, iterations=1)

    record("serving_overload",
           render_table(
               ["metric", "value"],
               [["burst size (back-to-back submits)", str(outcome["burst"])],
                ["queue depth cap", str(outcome["max_queue_depth"])],
                ["accepted", str(outcome["accepted"])],
                ["shed with 429", str(outcome["shed"])],
                ["submit phase ms",
                 f"{outcome['submit_elapsed'] * 1e3:.1f}"],
                ["mean Retry-After hint s",
                 f"{np.mean(outcome['retry_hints']):.3f}"
                 if outcome["retry_hints"] else "-"]],
               title="admission control under a burst 12x the depth cap"))

    assert outcome["accepted"] + outcome["shed"] == outcome["burst"]
    # The cap actually bit: most of the burst was shed, cheaply and fast —
    # the submit phase never waits out the backlog it refuses to join.
    assert outcome["shed"] > 0, "the depth cap never triggered"
    assert outcome["accepted"] >= outcome["max_queue_depth"]
    assert all(hint > 0 for hint in outcome["retry_hints"])
    assert outcome["admission"]["shed_total"] == outcome["shed"]
    assert outcome["admission"]["max_queue_depth"] == outcome["max_queue_depth"]


# --------------------------------------------------------------------------- #
# cold start: eager load vs memory-mapped bundles
# --------------------------------------------------------------------------- #
def _run_cold_start(settings, registry_root):
    registry, graph, model = _publish_model(settings, registry_root)
    offline = model.decision_scores(graph, mode="private")

    timings = {}
    loaded = {}
    for mode, mmap in (("eager", False), ("mmap", True)):
        best = float("inf")
        for _ in range(REPETITIONS):
            start = time.perf_counter()
            candidate, _record = registry.load("bench@latest", mmap=mmap)
            best = min(best, time.perf_counter() - start)
        timings[mode] = best
        loaded[mode] = candidate

    # The mapped model really is mapped, and scores are bitwise identical
    # across load modes and to the offline reference.
    assert isinstance(loaded["mmap"].theta_, np.memmap)
    assert not isinstance(loaded["eager"].theta_, np.memmap)
    scores = {mode: m.decision_scores(graph, mode="private")
              for mode, m in loaded.items()}
    assert np.array_equal(scores["eager"], offline)
    assert np.array_equal(scores["mmap"], offline)

    # And a service session built on the mapped bundle (the serving default)
    # serves the same bits.
    service = InferenceService(registry, graph=graph, mmap_bundles=True)
    probe = [0, 3, 9]
    assert np.array_equal(service.predict_scores("bench", probe),
                          offline[probe])
    service.close()
    return {"timings": timings,
            "archive_bytes": registry.resolve("bench@latest")
                                     .archive_path.stat().st_size}


def test_cold_start_mmap_vs_eager(benchmark, tmp_path):
    settings = bench_settings(datasets=("cora_ml",))
    outcome = benchmark.pedantic(_run_cold_start,
                                 args=(settings, tmp_path / "registry"),
                                 rounds=1, iterations=1)
    timings = outcome["timings"]
    record("serving_cold_start",
           render_table(
               ["load mode", "best-of-3 ms", "notes"],
               [["eager np.load", f"{timings['eager'] * 1e3:.2f}",
                 "copies every array byte up front"],
                ["memory-mapped", f"{timings['mmap'] * 1e3:.2f}",
                 "pages faulted in on first use"]],
               title=f"registry cold start "
                     f"({outcome['archive_bytes'] / 1024:.0f} KiB bundle); "
                     f"scores bitwise identical in both modes"))
    # No timing assertion: on small bundles and warm page caches the two are
    # close — the load-bearing claims (memmap type, bitwise equality) are
    # asserted inside the run.


# --------------------------------------------------------------------------- #
# tracing overhead: the traced request path vs --no-trace
# --------------------------------------------------------------------------- #
TRACE_OVERHEAD_BUDGET = 0.05   # the acceptance claim: <5% on p99


def _drive_http_singletons(port, nodes, offline, *, expect_trace):
    """Singleton predicts over HTTP; per-request wall latency, every answer
    bitwise checked against ``offline`` before its latency counts."""
    import urllib.request

    latencies = []
    for node in nodes:
        payload = json.dumps({"model": "bench", "nodes": [node]}).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/predict", data=payload,
            headers={"Content-Type": "application/json"})
        start = time.perf_counter()
        with urllib.request.urlopen(request, timeout=10.0) as resp:
            body = json.loads(resp.read())
            header = resp.headers.get("X-Repro-Trace")
        latencies.append(time.perf_counter() - start)
        assert np.array_equal(np.asarray(body["scores"]), offline[[node]]), \
            "served scores != offline decision_scores"
        assert (header is not None) == expect_trace
    return latencies


def _run_trace_overhead(settings, registry_root):
    registry, graph, model = _publish_model(settings, registry_root)
    offline = model.decision_scores(graph, mode="private")
    num_queries = 60 if is_smoke() else 200
    rng = np.random.default_rng(settings.seed)
    nodes = rng.integers(0, graph.num_nodes, size=num_queries).tolist()

    latencies = {}
    traced_counters = None
    for plane, traced in (("untraced", False), ("traced", True)):
        service = InferenceService(registry, graph=graph)
        service.prewarm("bench@latest")
        server = serve_http(service, port=0, trace=traced)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            port = server.server_address[1]
            _drive_http_singletons(port, nodes[:8], offline,
                                   expect_trace=traced)  # warm up
            # Start each plane from a fresh collection: otherwise one
            # gen-2 pass (~50 ms, set off by the set-up's and earlier
            # planes' allocations) lands in whichever plane comes next and
            # is its p99.
            gc.collect()
            latencies[plane] = _drive_http_singletons(
                port, nodes, offline, expect_trace=traced)
            if plane == "traced":
                traced_counters = server.tracer.counters()
        finally:
            server.shutdown()
            server.server_close()
            service.close()
    return {"num_queries": num_queries, "latencies": latencies,
            "traced_counters": traced_counters}


def test_tracing_overhead_within_budget(benchmark, tmp_path):
    settings = bench_settings(datasets=("cora_ml",))
    outcome = benchmark.pedantic(_run_trace_overhead,
                                 args=(settings, tmp_path / "registry"),
                                 rounds=1, iterations=1)

    stats = {plane: {"p50": float(np.percentile(values, 50)),
                     "p99": float(np.percentile(values, 99))}
             for plane, values in outcome["latencies"].items()}
    ratio = stats["traced"]["p99"] / stats["untraced"]["p99"]
    record("serving_trace_overhead",
           render_table(
               ["configuration", "p50 ms", "p99 ms"],
               [["--no-trace", f"{stats['untraced']['p50'] * 1e3:.2f}",
                 f"{stats['untraced']['p99'] * 1e3:.2f}"],
                ["traced (default)", f"{stats['traced']['p50'] * 1e3:.2f}",
                 f"{stats['traced']['p99'] * 1e3:.2f}"]],
               title=f"tracing overhead over {outcome['num_queries']} HTTP "
                     f"singleton predicts: p99 ratio {ratio:.3f} "
                     f"(budget {1 + TRACE_OVERHEAD_BUDGET:.2f})"))

    # Every traced request produced exactly one finished trace.
    counters = outcome["traced_counters"]
    assert counters["traces_finished"] >= outcome["num_queries"]
    assert counters["traces_active"] == 0
    # The acceptance budget is <5% on p99; a loaded 1-core CI runner adds
    # scheduler noise far above the span cost itself, so the *hard* gate is
    # loose (2x or +5ms absolute) and the recorded table carries the real
    # ratio against the 5% budget for the curious.
    assert stats["traced"]["p99"] <= max(
        2.0 * stats["untraced"]["p99"],
        stats["untraced"]["p99"] + 0.005), (
        f"tracing p99 overhead blew even the loose gate: "
        f"{stats['traced']['p99'] * 1e3:.2f}ms traced vs "
        f"{stats['untraced']['p99'] * 1e3:.2f}ms untraced (ratio {ratio:.2f})")
