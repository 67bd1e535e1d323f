"""The four workloads, their inputs and their correctness gates.

Each workload turns the seed into its inputs (node draws, the delta
sequence, the sweep's master seed), drives the real ``repro serve`` or
``repro sweep`` process from outside and returns a :class:`Phase`: the
end-to-end metrics, the per-layer metrics when traced, the operations
attempted and failed, and a detail record (warm-up coverage, sample
counts, gate outcomes).

The served model is one GCON release published into a registry under the
checkout's ``.perfbench-cache``; it is rebuilt whenever ``src/`` changes.
"""

from __future__ import annotations

import compileall
import hashlib
import json
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from loadgen import (Connection, ServerProcess, closed_loop, mixed_loop,
                     request_bytes, wait_peak_rss)

EPSILON = 2.0
ENCODER_EPOCHS = 150
MODEL_REF = "bench@latest"
CHECK_EVERY = 10      # every tenth predict answer is checked bitwise
GATE_CHUNK = 2048     # nodes per query of the final graph-update gate

WORKLOADS = {
    "predict-serial": dict(
        kind="predict", dataset="cora_ml", scale=0.25, steps=(2,),
        connections=1, nodes=1, launches=3, warmup_s=2.0, budget_rows=None),
    "predict-bulk": dict(
        kind="predict", dataset="cora_ml", scale=0.25, steps=(2,),
        connections=2, nodes=256, launches=3, warmup_s=40.0, budget_rows=512),
    "graph-update": dict(
        kind="update", dataset="pubmed", scale=1.0, steps=(0, 2, 4),
        launches=2, warmup_s=4.0, interval_s=1.0, inserts=2, deletes=1),
    "fit-sweep": dict(
        kind="sweep", dataset="cora_ml", scale=1.0,
        epsilons="0.25,0.5,0.75,1,1.5,2,3,4", repeats=8, jobs=1,
        encoder_epochs=150, min_sweeps=2),
}

# Tiny versions of the same workloads for the self-test.
SMOKE = {
    "predict-serial": dict(scale=0.06, launches=1, warmup_s=0.5),
    "predict-bulk": dict(scale=0.06, nodes=32, launches=1, warmup_s=1.0),
    "graph-update": dict(dataset="cora_ml", scale=0.25, launches=1,
                         warmup_s=1.0, interval_s=0.25),
    "fit-sweep": dict(scale=0.06, epsilons="0.5,1", repeats=2,
                      encoder_epochs=25),
}


@dataclass
class Context:
    root: Path
    seed: int
    seconds: float
    smoke: bool
    cache: Path = None
    scratch: Path = None

    def __post_init__(self):
        self.cache = self.root / ".perfbench-cache"
        self.scratch = self.cache / f"run-{time.time_ns()}"
        self.scratch.mkdir(parents=True)


@dataclass
class Phase:
    e2e: dict
    layers: dict | None
    attempted: int = 0
    failed: int = 0
    detail: dict = field(default_factory=dict)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    statuses: Counter = field(default_factory=Counter)

    def answer(self, status: int) -> None:
        self.attempted += 1
        self.statuses[status] += 1
        if status != 200:
            self.failed += 1


def workload_config(name: str, smoke: bool) -> dict:
    config = dict(WORKLOADS[name])
    if smoke:
        config.update(SMOKE[name])
    return config


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def percentile_ms(values_ns, q: float) -> float:
    return float(np.percentile(np.asarray(values_ns, dtype=np.float64), q)) / 1e6


def source_digest(root: Path) -> str:
    hasher = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


# --------------------------------------------------------------------------- #
# the served release
# --------------------------------------------------------------------------- #
@dataclass
class Release:
    registry: Path
    graph: object
    model: object


def ensure_release(ctx: Context, config: dict) -> Release:
    """The published GCON release for ``config`` (built once per source)."""
    from repro.serving import ModelRegistry

    key = digest((source_digest(ctx.root), config["dataset"], config["scale"],
                  config["steps"], EPSILON, ENCODER_EPOCHS))
    target = ctx.cache / "releases" / key
    if not (target / "graph.pkl").exists():
        compileall.compile_dir(ctx.root / "src", quiet=1)
        building = ctx.scratch / "release"
        _build_release(building, config)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.rmtree(target, ignore_errors=True)
        building.rename(target)
    with open(target / "graph.pkl", "rb") as handle:
        graph = pickle.load(handle)  # written by _build_release above
    model, _record = ModelRegistry(target / "registry").load(MODEL_REF)
    return Release(registry=target / "registry", graph=graph, model=model)


def _build_release(directory: Path, config: dict) -> None:
    from repro.core.model import GCON
    from repro.evaluation.figures import FigureSettings, default_gcon_config
    from repro.graphs.datasets import load_dataset
    from repro.serving import ModelRegistry

    directory.mkdir(parents=True)
    graph = load_dataset(config["dataset"], scale=config["scale"], seed=0)
    settings = FigureSettings(encoder_epochs=ENCODER_EPOCHS)
    model = GCON(default_gcon_config(EPSILON, 1.0 / max(graph.num_edges, 1),
                                     settings,
                                     propagation_steps=config["steps"]))
    model.fit(graph, seed=0)
    ModelRegistry(directory / "registry").publish(
        model, "bench", inference_mode="private",
        training={"dataset": config["dataset"], "scale": config["scale"],
                  "graph_seed": 0})
    with open(directory / "graph.pkl", "wb") as handle:
        pickle.dump(graph, handle)


def _launch(ctx: Context, release: Release, launches: int,
            spans: Path | None) -> tuple[ServerProcess, list]:
    """Launch ``launches`` servers one after another, keep the last one;
    returns it and every launch's set-up time."""
    setups = []
    for _ in range(launches - 1):
        server = ServerProcess(ctx.root, release.registry, MODEL_REF)
        setups.append(server.setup_s)
        server.stop()
    server = ServerProcess(ctx.root, release.registry, MODEL_REF, spans=spans)
    setups.append(server.setup_s)
    return server, setups


def _scores_match(body: bytes, rows: np.ndarray) -> bool:
    served = np.asarray(json.loads(body)["scores"], dtype=np.float64)
    return served.shape == rows.shape and served.tobytes() == rows.tobytes()


def _row_budget(port: int) -> int:
    connection = Connection(port)
    try:
        _status, body = connection.request(request_bytes("GET", "/stats"))
    finally:
        connection.close()
    models = json.loads(body).get("slo", {}).get("models", {})
    return max((int(model["max_batch_size"]) for model in models.values()),
               default=0)


def _layer_metrics(spans_path: Path, window, predicts: int, updates: int,
                   late_ms_p99: float) -> dict:
    metrics = dict.fromkeys(layers.LAYER_METRICS, 0.0)
    metrics.update(layers.serving_layers(layers.load_spans(spans_path), window,
                                         predicts, updates))
    metrics["loadgen.late_ms_p99"] = late_ms_p99
    return metrics


# --------------------------------------------------------------------------- #
# predict-serial / predict-bulk
# --------------------------------------------------------------------------- #
def prepare_predict(ctx: Context, config: dict) -> dict:
    release = ensure_release(ctx, config)
    rng = np.random.default_rng(ctx.seed)
    draws = [rng.integers(0, release.graph.num_nodes, size=config["nodes"])
             for _ in range(512)]
    requests = [request_bytes("POST", "/v1/predict",
                              {"model": MODEL_REF, "nodes": nodes.tolist(),
                               "mode": "private"})
                for nodes in draws]
    return {"release": release, "draws": draws, "requests": requests,
            "reference": release.model.decision_scores(release.graph,
                                                       mode="private"),
            "inputs_digest": digest([nodes.tolist() for nodes in draws])}


def predict_phase(ctx: Context, config: dict, inputs: dict, *, traced: bool,
                  launches: int) -> Phase:
    spans = ctx.scratch / f"spans-{time.time_ns()}.jsonl" if traced else None
    server, setups = _launch(ctx, inputs["release"], launches, spans)
    tally = Tally()
    counter = {"sent": 0, "mismatches": 0, "checked": 0}
    latencies: list = []
    try:
        connections = [Connection(server.port)
                       for _ in range(config["connections"])]

        def next_request(connection):
            index = counter["sent"]
            counter["sent"] += 1
            slot = index % len(inputs["requests"])
            return inputs["requests"][slot], (index, slot)

        def on_answer(connection, status, body, sent, done, record=True):
            tally.answer(status)
            index, slot = connection.context
            if status == 200 and index % CHECK_EVERY == 0:
                counter["checked"] += 1
                rows = inputs["reference"][inputs["draws"][slot]]
                if not _scores_match(body, rows):
                    counter["mismatches"] += 1
                    tally.failed += 1
            if record:
                latencies.append(done - sent)

        warm_start = time.monotonic()
        budget = 0
        while True:
            closed_loop(connections, next_request,
                        time.monotonic_ns() + 1_000_000_000,
                        lambda *a: on_answer(*a, record=False))
            elapsed = time.monotonic() - warm_start
            if config["budget_rows"] is None:
                if elapsed >= config["warmup_s"]:
                    break
                continue
            budget = _row_budget(server.port)
            if budget > config["budget_rows"] or elapsed >= config["warmup_s"]:
                break
        warmup = {"seconds": round(time.monotonic() - warm_start, 3),
                  "requests": counter["sent"],
                  "row_budget": budget or None,
                  "row_budget_target": config["budget_rows"]}

        start = time.monotonic_ns()
        closed_loop(connections, next_request,
                    start + int(ctx.seconds * 1e9), on_answer)
        end = time.monotonic_ns()
        for connection in connections:
            connection.close()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    e2e = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile_ms(latencies, 50),
        "latency_p90_ms": percentile_ms(latencies, 90),
        "throughput_per_s": len(latencies) / ((end - start) / 1e9),
        "peak_rss_mb": rss,
    }
    layer = (_layer_metrics(spans, (start, end), len(latencies), 0, 0.0)
             if traced else None)
    detail = {"setups_s": setups, "warmup": warmup,
              "samples": len(latencies), "statuses": dict(tally.statuses),
              "checked_bitwise": counter["checked"],
              "mismatches": counter["mismatches"]}
    return Phase(e2e, layer, tally.attempted, tally.failed, detail)


# --------------------------------------------------------------------------- #
# graph-update
# --------------------------------------------------------------------------- #
def make_deltas(graph, rng, count: int, inserts: int, deletes: int) -> list:
    """``count`` edge deltas, each valid on the graph left by the ones
    before it: ``inserts`` absent pairs in, ``deletes`` present edges out."""
    coo = graph.adjacency.tocoo()
    upper = coo.row < coo.col
    edges = list(zip(coo.row[upper].tolist(), coo.col[upper].tolist()))
    present = set(edges)
    n = graph.num_nodes
    deltas = []
    for _ in range(count):
        removed = []
        for _ in range(deletes):
            position = int(rng.integers(len(edges)))
            edge = edges[position]
            edges[position] = edges[-1]
            edges.pop()
            present.discard(edge)
            removed.append(edge)
        added = []
        while len(added) < inserts:
            u, v = sorted(int(node) for node in rng.integers(0, n, size=2))
            if u != v and (u, v) not in present and (u, v) not in removed:
                present.add((u, v))
                edges.append((u, v))
                added.append((u, v))
        deltas.append(([list(edge) for edge in added],
                       [list(edge) for edge in removed]))
    return deltas


def prepare_update(ctx: Context, config: dict) -> dict:
    release = ensure_release(ctx, config)
    rng = np.random.default_rng(ctx.seed)
    count = int((config["warmup_s"] + ctx.seconds) / config["interval_s"]) + 4
    deltas = make_deltas(release.graph, rng, count, config["inserts"],
                         config["deletes"])
    reads = rng.integers(0, release.graph.num_nodes, size=1024).tolist()
    return {"release": release, "deltas": deltas,
            "updates": [request_bytes("POST", "/v1/graph/update",
                                      {"insert": ins, "delete": dels})
                        for ins, dels in deltas],
            "reads": [request_bytes("POST", "/v1/predict",
                                    {"model": MODEL_REF, "nodes": [node],
                                     "mode": mode})
                      for node in reads for mode in ("private", "public")],
            "inputs_digest": digest((deltas, reads))}


def _replay_gate(port: int, inputs: dict, applied: list, served_digest,
                 tally: Tally) -> dict:
    """Query every node in both modes; compare bitwise with the benchmark's
    own offline replay of the applied deltas.

    The reference multiplies the same row stack the server multiplies: on
    pubmed a 2048-row product and the full-graph product of
    ``decision_scores`` dispatch different BLAS kernels and differ in the
    last bit on most rows even before any update, so only a like-for-like
    product isolates the served feature rows."""
    from repro.core.inference import batched_inference_scores
    from repro.core.propagation import graph_fingerprint

    graph = inputs["release"].graph
    for index in applied:
        inserts, deletes = inputs["deltas"][index]
        for u, v in inserts:
            graph = graph.with_edge(u, v)
        for u, v in deletes:
            graph = graph.without_edge(u, v)
    digest_ok = served_digest is None or \
        graph_fingerprint(graph.adjacency) == served_digest
    tally.attempted += 1
    tally.failed += 0 if digest_ok else 1
    mismatched = 0
    connection = Connection(port)
    try:
        for mode in ("private", "public"):
            model = inputs["release"].model
            features = model.inference_features(graph, mode=mode)
            for first in range(0, graph.num_nodes, GATE_CHUNK):
                nodes = list(range(first, min(first + GATE_CHUNK,
                                              graph.num_nodes)))
                status, body = connection.request(request_bytes(
                    "POST", "/v1/predict",
                    {"model": MODEL_REF, "nodes": nodes, "mode": mode}))
                tally.answer(status)
                reference = batched_inference_scores(features[nodes],
                                                     model.theta_)
                if status == 200 and not _scores_match(body, reference):
                    mismatched += 1
                    tally.failed += 1
    finally:
        connection.close()
    return {"updates_replayed": len(applied), "digest_match": digest_ok,
            "mismatched_queries": mismatched}


def update_phase(ctx: Context, config: dict, inputs: dict, *, traced: bool,
                 launches: int) -> Phase:
    spans = ctx.scratch / f"spans-{time.time_ns()}.jsonl" if traced else None
    server, setups = _launch(ctx, inputs["release"], launches, spans)
    tally = Tally()
    reads = inputs["reads"]
    state = {"reads": 0, "applied": [], "digest": None, "next": 0,
             "first_public_ms": None, "measuring": False}
    read_ns: list = []
    update_ns: list = []
    late_ns: list = []
    interval = int(config["interval_s"] * 1e9)
    try:
        reader = Connection(server.port)
        writer = Connection(server.port)

        def next_read(_connection):
            index = state["reads"]
            state["reads"] += 1
            # Reads alternate private (even slots) and public (odd slots)
            # during the warm-up; measured reads take the private slots.
            slot = 2 * index if state["measuring"] else index
            return reads[slot % len(reads)], index

        def on_read(connection, status, _body, sent, done, record=True):
            tally.answer(status)
            if connection.context == 1 and state["first_public_ms"] is None:
                state["first_public_ms"] = (done - sent) / 1e6
            if record:
                read_ns.append(done - sent)

        def on_update(offset, record):
            def handle(index, status, body, due, sent, done):
                tally.answer(status)
                if status == 200:
                    state["applied"].append(offset + index)
                    state["digest"] = json.loads(body)["digest"]
                if record:
                    update_ns.append(done - due)
                    late_ns.append(sent - due)
                state["next"] = offset + index + 1
            return handle

        warm_start = time.monotonic_ns()
        mixed_loop(reader, next_read, lambda *a: on_read(*a, record=False),
                   writer, inputs["updates"], warm_start, interval,
                   warm_start + int(config["warmup_s"] * 1e9),
                   on_update(0, record=False))
        warmup = {"seconds": round((time.monotonic_ns() - warm_start) / 1e9, 3),
                  "reads": state["reads"], "updates": len(state["applied"]),
                  "cold_public_read_ms": state["first_public_ms"]}

        first = state["next"]
        state["measuring"] = True
        start = time.monotonic_ns()
        end = start + int(ctx.seconds * 1e9)
        mixed_loop(reader, next_read, on_read, writer,
                   inputs["updates"][first:], start, interval, end,
                   on_update(first, record=True))
        end = time.monotonic_ns()
        reader.close()
        writer.close()
        rss = server.peak_rss_mb()
        gate = _replay_gate(server.port, inputs, state["applied"],
                            state["digest"], tally)
    finally:
        server.stop()
    e2e = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile_ms(update_ns, 50),
        "latency_p90_ms": percentile_ms(update_ns, 90),
        "throughput_per_s": len(read_ns) / ((end - start) / 1e9),
        "peak_rss_mb": rss,
    }
    layer = (_layer_metrics(spans, (start, end), len(read_ns), len(update_ns),
                            percentile_ms(late_ns, 99))
             if traced else None)
    detail = {"setups_s": setups, "warmup": warmup,
              "updates": len(update_ns), "reads": len(read_ns),
              "read_p50_ms": percentile_ms(read_ns, 50),
              "late_ms_max": max(late_ns) / 1e6,
              "statuses": dict(tally.statuses), "gate": gate}
    return Phase(e2e, layer, tally.attempted, tally.failed, detail)


# --------------------------------------------------------------------------- #
# fit-sweep
# --------------------------------------------------------------------------- #
def prepare_sweep(ctx: Context, config: dict) -> dict:
    compileall.compile_dir(ctx.root / "src", quiet=1)
    argv = ["sweep", "--datasets", config["dataset"], "--methods", "GCON",
            "--epsilons", config["epsilons"], "--scale", str(config["scale"]),
            "--repeats", str(config["repeats"]), "--jobs", str(config["jobs"]),
            "--encoder-epochs", str(config["encoder_epochs"]),
            "--seed", str(ctx.seed), "--quiet"]
    cells = len(config["epsilons"].split(",")) * config["repeats"]
    return {"argv": argv, "cells": cells, "inputs_digest": digest(argv)}


def _read_records(path: Path) -> list:
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                records.append((record["method"], record["dataset"],
                                record["epsilon"], record["repeat"],
                                record["micro_f1"]))
    return sorted(records)


def sweep_phase(ctx: Context, config: dict, inputs: dict, *,
                traced: bool) -> Phase:
    launcher = str(ctx.root / "perfbench" / "launch.py")
    walls, setups, rss, digests = [], [], [], []
    attempted = failed = 0
    spans = ctx.scratch / f"spans-{time.time_ns()}.jsonl" if traced else None
    reference = None
    start = time.monotonic()
    while len(walls) < config["min_sweeps"] or \
            time.monotonic() - start < ctx.seconds:
        tag = f"{time.time_ns()}"
        output = ctx.scratch / f"sweep-{tag}.jsonl"
        marks = ctx.scratch / f"marks-{tag}.json"
        command = [sys.executable, launcher, "--marks", str(marks)]
        if traced:
            command += ["--spans", str(spans)]
        command += ["--", *inputs["argv"], "--output", str(output)]
        with open(ctx.scratch / f"stderr-{tag}.txt", "w") as stderr:
            launched = time.monotonic_ns()
            process = subprocess.Popen(command, cwd=ctx.root,
                                       stdout=subprocess.DEVNULL, stderr=stderr)
            code, peak = wait_peak_rss(process)
            finished = time.monotonic_ns()
        if code != 0:
            raise RuntimeError(
                f"repro sweep exited {code}:\n"
                + (ctx.scratch / f"stderr-{tag}.txt").read_text()[-4000:])
        walls.append(finished - launched)
        rss.append(peak)
        mark = json.loads(marks.read_text())
        setups.append((mark["engine_start_ns"] - launched) / 1e9)
        records = _read_records(output)
        digests.append(digest(records))
        attempted += inputs["cells"]
        if reference is None:
            reference = records
            failed += inputs["cells"] - len(records)
        else:
            # Cells must repeat exactly from sweep to sweep.
            failed += sum(a != b for a, b in zip(records, reference)) \
                + abs(len(records) - len(reference))
    median_ns = statistics.median(walls)
    e2e = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": median_ns / 1e6,
        "latency_p90_ms": percentile_ms(walls, 90),
        "throughput_per_s": inputs["cells"] / (median_ns / 1e9),
        "peak_rss_mb": statistics.median(rss),
    }
    layer = None
    if traced:
        layer = dict.fromkeys(layers.LAYER_METRICS, 0.0)
        layer.update(layers.sweep_layers(layers.load_spans(spans), len(walls)))
    detail = {"sweeps": len(walls), "walls_s": [w / 1e9 for w in walls],
              "setups_s": setups, "cells_per_sweep": inputs["cells"],
              "records_digests": digests, "jobs": config["jobs"],
              "warmup": {"kind": "none: every sweep is a fresh process whose "
                                 "start-up users pay; byte code is compiled "
                                 "during set-up"}}
    return Phase(e2e, layer, attempted, failed, detail)


# --------------------------------------------------------------------------- #
# dispatch
# --------------------------------------------------------------------------- #
def run(ctx: Context, name: str, *, traced: bool) -> Phase:
    """Run workload ``name``; with ``traced`` run it untraced first, then
    traced, and report the traced layers plus the tracing overhead."""
    config = workload_config(name, ctx.smoke)
    kind = config["kind"]
    prepare = {"predict": prepare_predict, "update": prepare_update,
               "sweep": prepare_sweep}[kind]
    inputs = prepare(ctx, config)

    def phase(is_traced: bool, launches: int) -> Phase:
        if kind == "sweep":
            return sweep_phase(ctx, config, inputs, traced=is_traced)
        run_phase = predict_phase if kind == "predict" else update_phase
        return run_phase(ctx, config, inputs, traced=is_traced,
                         launches=launches)

    if traced:
        untraced = phase(False, 1)
        result = phase(True, 1)
        base = untraced.e2e["latency_p50_ms"]
        result.layers["trace.overhead_pct"] = \
            (result.e2e["latency_p50_ms"] - base) / base * 100.0
        result.attempted += untraced.attempted
        result.failed += untraced.failed
        result.detail["untraced"] = untraced.e2e
        result.detail["traced"] = result.e2e
    else:
        result = phase(False, config.get("launches", 1))
    result.detail["inputs_digest"] = inputs["inputs_digest"]
    return result
