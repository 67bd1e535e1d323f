"""The ``sweep`` command: the full method x dataset x epsilon x repeat grid,
run on the in-process pool or fanned out through the distributed queue."""

from __future__ import annotations

import sys

from repro.cli.commands.shared import (
    add_preparation_cache_argument,
    add_sweep_grid_arguments,
    resolve_sweep_names,
    sweep_spec_from_args,
)


def print_sweep_summary(results, jobs, output) -> None:
    from repro.evaluation.reporting import render_series, render_table
    from repro.evaluation.runner import aggregate_results, series_from_results

    aggregated = aggregate_results(results)
    rows = [
        [method, dataset, f"{epsilon:g}", f"{stats['mean']:.4f}", f"{stats['std']:.4f}",
         f"{stats['min']:.4f}", f"{stats['max']:.4f}", stats["count"]]
        for (method, dataset, epsilon), stats in sorted(aggregated.items())
    ]
    print(render_table(
        ["method", "dataset", "epsilon", "mean", "std", "min", "max", "repeats"],
        rows, title=f"sweep ({len(results)} cells, jobs={jobs})"))
    print()
    print(render_series(series_from_results(results), title="mean micro-F1 series"))
    if output:
        print(f"\nresults stored in: {output}")


def command_sweep(args) -> int:
    """Run a full method x dataset x epsilon x repeat sweep on the parallel engine."""
    from repro.evaluation.figures import FigureSettings
    from repro.runtime.cells import expand_cells
    from repro.runtime.engine import ParallelExperimentRunner
    from repro.runtime.store import JsonlResultStore
    from repro.runtime.workers import FigureCellRunner

    methods, error = resolve_sweep_names(args)
    if error:
        print(error, file=sys.stderr)
        return 2
    if args.dist_dir:
        return _sweep_distributed(args, methods)

    settings = FigureSettings(
        scale=args.scale, repeats=args.repeats, seed=args.seed, epochs=args.epochs,
        encoder_epochs=args.encoder_epochs, datasets=tuple(args.datasets),
        epsilons=tuple(args.epsilons), jobs=args.jobs,
    )
    cells = expand_cells(methods, settings.datasets, settings.epsilons,
                         settings.repeats, seed=settings.seed)
    store = JsonlResultStore(args.output) if args.output else None
    engine = ParallelExperimentRunner(
        FigureCellRunner(settings=settings, delta=args.delta,
                         preparation_cache=args.preparation_cache),
        jobs=args.jobs, store=store, progress=not args.quiet,
        resume_context=dict(settings.resume_context(), delta=args.delta),
    )
    results = engine.run(cells)
    print_sweep_summary(results, args.jobs, args.output)
    return 0


def _sweep_distributed(args, methods: list[str]) -> int:
    """The ``sweep --dist-dir`` fast path: submit, fan out local workers, merge."""
    from repro.distributed import Coordinator, start_local_workers
    from repro.runtime.store import JsonlResultStore

    spec = sweep_spec_from_args(args, methods)
    coordinator = Coordinator(args.dist_dir)
    report = coordinator.submit(spec)
    print(f"dist queue {args.dist_dir}: {report.summary()}", file=sys.stderr)

    workers = start_local_workers(
        args.dist_dir, jobs=args.jobs,
        preparation_cache=args.preparation_cache)
    try:
        completed = coordinator.wait(
            progress=not args.quiet,
            should_abort=lambda: not any(p.is_alive() for p in workers))
    finally:
        for process in workers:
            process.join()
    if not completed and coordinator.queue.pending_ids():
        print("distributed sweep did not complete (see the failed/ directory "
              "of the queue); rerun to resume", file=sys.stderr)
        return 1

    merge_report = coordinator.merge(args.output or None)
    print(merge_report.summary(), file=sys.stderr)
    results = JsonlResultStore(merge_report.output).load()
    print_sweep_summary(results, args.jobs, str(merge_report.output))
    return 0


def configure(subparsers) -> None:
    sweep = subparsers.add_parser(
        "sweep", help="run a method x dataset x epsilon x repeat sweep in parallel")
    add_sweep_grid_arguments(sweep)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="number of parallel worker processes")
    sweep.add_argument("--output", default=None,
                       help="JSONL result store; rerunning with the same path "
                            "resumes an interrupted sweep")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress progress reporting on stderr")
    sweep.add_argument("--dist-dir", default=None, dest="dist_dir", metavar="DIR",
                       help="run the sweep through the distributed queue in DIR "
                            "instead of an in-process pool: submit the spec, "
                            "fan out --jobs local worker processes, merge the "
                            "shards (other machines may join with "
                            "'repro dist work --dist-dir DIR')")
    add_preparation_cache_argument(sweep)
    sweep.set_defaults(func=command_sweep)
