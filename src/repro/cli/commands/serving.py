"""The ``publish`` and ``serve`` commands: release a sweep winner into the
model registry and serve registry models over the batched HTTP JSON API."""

from __future__ import annotations

import sys

from repro.cli.commands.shared import (
    add_sweep_grid_arguments,
    resolve_sweep_names,
    sweep_spec_from_args,
)


def command_publish(args) -> int:
    """Publish the winning GCON cell of a sweep store into a model registry.

    The sweep grid arguments must repeat the knobs of the sweep that produced
    ``--store`` (they default to the sweep defaults); the rebuilt context
    fingerprint is checked against the stamp on the winning record, so a
    store cannot silently be published under different settings.  The cell is
    refit from its deterministic seed — the released theta is recomputed, not
    read from the store, which only ever holds scores.
    """
    from repro.graphs.datasets import load_dataset
    from repro.runtime.cells import derive_cell_seed
    from repro.runtime.store import JsonlResultStore, best_record
    from repro.runtime.workers import score_estimator
    from repro.serving import ModelRegistry

    methods, error = resolve_sweep_names(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    store = JsonlResultStore(args.store)
    records = store.load()
    if not records:
        print(f"store {args.store} holds no records", file=sys.stderr)
        return 2
    try:
        winner = best_record(records, method=args.select_method,
                             dataset=args.select_dataset,
                             epsilon=args.select_epsilon)
    except ValueError as error:
        print(f"publish failed: {error}", file=sys.stderr)
        return 2
    if winner.method != "GCON":
        print(f"publish failed: the winning record is {winner.method!r}; only "
              f"GCON releases are publishable (narrow with --method)",
              file=sys.stderr)
        return 2

    spec = sweep_spec_from_args(args, methods)
    stamped = winner.extra.get("sweep_context")
    if stamped is not None and stamped != spec.context_digest():
        print(f"publish failed: the store was produced under sweep context "
              f"{stamped}, but the given grid arguments fingerprint to "
              f"{spec.context_digest()}; repeat the original sweep's knobs",
              file=sys.stderr)
        return 2
    if stamped is None:
        print("warning: the winning record carries no sweep-context stamp; "
              "trusting the given grid arguments", file=sys.stderr)

    from repro.core.model import GCON
    from repro.core.propagation import graph_fingerprint
    from repro.evaluation.figures import default_gcon_config

    settings = spec.settings()
    graph = load_dataset(winner.dataset, scale=spec.scale, seed=spec.seed)
    delta = spec.delta if spec.delta is not None else 1.0 / max(graph.num_edges, 1)
    cell_seed = derive_cell_seed(spec.seed, winner.dataset, winner.method,
                                 winner.repeat)
    model = GCON(default_gcon_config(winner.epsilon, delta, settings))
    model.fit(graph, seed=cell_seed)
    refit_score = score_estimator(model, graph, args.inference_mode)

    registry = ModelRegistry(args.registry)
    record = registry.publish(model, args.name, inference_mode=args.inference_mode,
                              training={
                                  "dataset": winner.dataset,
                                  "scale": spec.scale,
                                  "graph_seed": spec.seed,
                                  # Epoch-0 digest of the training graph:
                                  # serving refuses a regenerated graph
                                  # with another digest.
                                  "graph_digest": graph_fingerprint(
                                      graph.adjacency),
                                  "cell_seed": cell_seed,
                                  "repeat": winner.repeat,
                                  "epsilon": winner.epsilon,
                                  "store_micro_f1": winner.micro_f1,
                                  "refit_micro_f1": refit_score,
                                  "sweep_context": stamped,
                                  "store": str(args.store),
                              })
    epsilon, delta_spent = model.privacy_spent
    print(f"published {record.ref} (digest {record.digest[:16]}…)")
    print(f"  source cell: {winner.method}/{winner.dataset} "
          f"epsilon={winner.epsilon:g} repeat={winner.repeat} "
          f"(store micro-F1 {winner.micro_f1:.4f})")
    print(f"  privacy: epsilon={epsilon:g}, delta={delta_spent:.3g}")
    print(f"  refit test micro-F1 ({args.inference_mode} inference): {refit_score:.4f}")
    if abs(refit_score - winner.micro_f1) > 0.02:
        print("  note: refit score differs from the store record by more than "
              "0.02 — the record may come from the vectorised sweep fast path "
              "(solver-tolerance-level drift is expected)", file=sys.stderr)
    print(f"serve it with:  repro serve --registry {args.registry} "
          f"--model {args.name}@latest")
    return 0


def command_serve(args) -> int:
    """Serve registry models over the selector-loop HTTP JSON API."""
    from repro.serving import InferenceService, serve_http

    max_queue_depth = args.max_queue_depth if args.max_queue_depth > 0 else None
    service = InferenceService(
        args.registry, max_batch_size=args.batch_size,
        max_latency=args.max_latency_ms / 1000.0,
        max_queue_depth=max_queue_depth,
        mmap_bundles=not args.no_mmap)
    records = []
    try:
        for ref in args.models:
            records.append(service.registry.verify(ref))
            # Warm each session (graph load, encoder forward pass,
            # propagation) before binding the socket, so the first query pays
            # only one matmul — and a bad manifest/graph fails here with a
            # clean message instead of on the first request.  Warming also
            # matters more now: a cold build would run on the selector loop.
            service.predict_scores(ref, [0])
    except Exception as error:
        print(f"serve failed: {error}", file=sys.stderr)
        return 2
    server = serve_http(service, host=args.host, port=args.port,
                        log_stream=None if args.quiet else sys.stderr,
                        max_connections=args.max_connections,
                        stats_interval=args.stats_interval,
                        trace=not args.no_trace)
    host, port = server.server_address[:2]

    watcher = None
    if args.reload_interval and args.reload_interval > 0:
        from repro.serving import watch_models

        watcher = watch_models(service, args.models,
                               interval=args.reload_interval).start()

    served = ", ".join(f"{record.ref} (mode={record.inference_mode})"
                       for record in records)
    depth_note = (f"queue<={max_queue_depth}" if max_queue_depth is not None
                  else "no admission cap")
    print(f"serving {served} on http://{host}:{port} "
          f"(batch<={args.batch_size}, latency<={args.max_latency_ms:g}ms, "
          f"connections<={args.max_connections}, {depth_note})",
          file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if watcher is not None:
            watcher.close()
        server.server_close()
        service.close()
    return 0


def configure(subparsers) -> None:
    publish = subparsers.add_parser(
        "publish", help="publish the winning sweep cell into a model registry")
    publish.add_argument("--store", required=True,
                         help="JSONL result store of the finished sweep")
    publish.add_argument("--registry", required=True, metavar="DIR",
                         help="model registry root directory")
    publish.add_argument("--name", required=True,
                         help="model name to publish under (versions are "
                              "content-addressed; latest advances)")
    publish.add_argument("--method", default="GCON", dest="select_method",
                         help="restrict winner selection to this method "
                              "(default: GCON, the only publishable release)")
    publish.add_argument("--dataset", default=None, dest="select_dataset",
                         help="restrict winner selection to this dataset")
    publish.add_argument("--epsilon", type=float, default=None, dest="select_epsilon",
                         help="restrict winner selection to this privacy budget")
    publish.add_argument("--inference-mode", choices=("private", "public"),
                         default="private", dest="inference_mode",
                         help="default Algorithm-4 mode stamped into the manifest")
    add_sweep_grid_arguments(publish)
    publish.set_defaults(func=command_publish)

    serve = subparsers.add_parser(
        "serve", help="serve registry models over a batched HTTP JSON API")
    serve.add_argument("--registry", required=True, metavar="DIR",
                       help="model registry root directory")
    serve.add_argument("--model", required=True, action="append",
                       dest="models", metavar="REF",
                       help="model reference, e.g. NAME@latest or "
                            "NAME@<digest>; repeat to verify and pre-warm "
                            "several models (each gets its own batch queue)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8151,
                       help="TCP port (0 binds an ephemeral port)")
    serve.add_argument("--batch-size", type=int, default=4096,
                       dest="batch_size",
                       help="flush a model's micro-batch at this many "
                            "queried rows (per-model queues)")
    serve.add_argument("--max-latency-ms", type=float, default=5.0,
                       dest="max_latency_ms",
                       help="flush a model's forming micro-batch after this "
                            "many milliseconds even if not full")
    serve.add_argument("--max-connections", type=int, default=512,
                       dest="max_connections",
                       help="concurrent connection bound of the selector "
                            "frontend; excess accepts are answered 503")
    serve.add_argument("--stats-interval", type=float, default=None,
                       dest="stats_interval", metavar="SECONDS",
                       help="log a per-model latency summary "
                            "(n/p50/p95/p99) to stderr every SECONDS")
    serve.add_argument("--max-queue-depth", type=int, default=512,
                       dest="max_queue_depth", metavar="N",
                       help="shed load with HTTP 429 + Retry-After once a "
                            "model has this many requests in flight "
                            "(0 disables admission control)")
    serve.add_argument("--no-mmap", action="store_true", dest="no_mmap",
                       help="load model bundles eagerly instead of "
                            "memory-mapping them (scores are bitwise "
                            "identical either way)")
    serve.add_argument("--reload-interval", type=float, default=1.0,
                       dest="reload_interval", metavar="SECONDS",
                       help="poll the registry's latest pointers this often; "
                            "a flipped version is pre-warmed before the old "
                            "one's queues retire (0 disables hot-reload)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request log lines on stderr")
    serve.add_argument("--no-trace", action="store_true", dest="no_trace",
                       help="disable request tracing (/debug/traces and the "
                            "per-stage histograms on /metrics; scores are "
                            "bitwise identical either way)")
    serve.set_defaults(func=command_serve)
