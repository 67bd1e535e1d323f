"""Parallel epsilon sweeps with the runtime engine and the ``repro sweep`` CLI.

Expands a ``method x dataset x epsilon x repeat`` grid into independent
seeded cells, fans them out over worker processes, streams every finished
cell into a resumable JSONL store, and aggregates the results -- matching a
serial run, typically several times faster.  Three layers stack up:

* **shared preparation**: cells that differ only in epsilon share their seed,
  so a worker trains the public encoder and runs the PPR/APPR propagation
  once per (method, dataset, repeat) and reuses the preparation across the
  entire epsilon axis;
* **the epsilon-sweep fast path**: a whole epsilon axis of GCON cells is
  dispatched to one worker as a group and solved in a single vectorised
  ``SweepSolver`` pass -- the convex solves run against the shared feature
  matrix with warm starts (the epsilon_i minimiser initialises
  epsilon_{i+1}) and all models are scored through one shared inference
  feature matrix.  Results agree with the per-cell reference path
  (``FigureCellRunner(...)(cell)``, which every non-GCON or single-cell
  group runs) to within solver tolerance;
* **the content-addressed preparation store**: set the
  ``REPRO_PREPARATION_CACHE`` environment variable (or pass
  ``--preparation-cache DIR``) to a directory and every fitted encoder plus
  its propagated features is persisted under the hash of
  ``(preparation config, graph content, seed)``.  Repeats, resumed sweeps
  and fresh worker processes then skip the preparation phase entirely;
  a cache hit is bitwise identical to a cold preparation, and any change to
  the preparation configuration, the graph or the seed is a cache miss.

One machine is the ceiling here: to shard the same sweep across several
machines over a shared filesystem (work queue + leases + shard merging),
see ``examples/distributed_sweep.py`` and ``repro sweep --dist-dir DIR``.

Run with:  python examples/parallel_sweep.py [--jobs 4] [--scale 0.15]

The equivalent CLI invocation (resumable via --output):

    REPRO_PREPARATION_CACHE=results/prep \
    repro sweep --datasets cora_ml --methods GCON,MLP \
        --epsilons 0.5,1,2,4 --repeats 2 --jobs 4 \
        --output results/sweep.jsonl
"""

from __future__ import annotations

import argparse
import time

from repro.evaluation.figures import FigureSettings
from repro.evaluation.reporting import render_table
from repro.evaluation.runner import aggregate_results
from repro.runtime import JsonlResultStore, ParallelExperimentRunner, expand_cells
from repro.runtime.workers import FigureCellRunner


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4, help="worker processes")
    parser.add_argument("--scale", type=float, default=0.15,
                        help="graph down-scaling factor in (0, 1]")
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--output", default=None,
                        help="optional JSONL store; rerun with the same path to resume")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    settings = FigureSettings(
        scale=args.scale, repeats=args.repeats, seed=args.seed,
        epochs=60, encoder_epochs=80,
        datasets=("cora_ml",), epsilons=(0.5, 1.0, 2.0, 4.0),
    )
    methods = ["GCON", "MLP"]
    cells = expand_cells(methods, settings.datasets, settings.epsilons,
                         settings.repeats, seed=settings.seed)
    print(f"sweep: {len(cells)} cells "
          f"({len(methods)} methods x {len(settings.datasets)} dataset(s) x "
          f"{len(settings.epsilons)} epsilons x {settings.repeats} repeats), "
          f"jobs={args.jobs}")

    store = JsonlResultStore(args.output) if args.output else None
    # resume_context ties the store to these numeric settings: rerunning with
    # a different --scale/--seed recomputes instead of returning stale rows.
    engine = ParallelExperimentRunner(FigureCellRunner(settings=settings),
                                      jobs=args.jobs, store=store, progress=True,
                                      resume_context=settings.resume_context())
    start = time.perf_counter()
    results = engine.run(cells)
    elapsed = time.perf_counter() - start

    rows = [
        [method, f"{epsilon:g}", f"{stats['mean']:.4f} +/- {stats['std']:.4f}",
         f"[{stats['min']:.4f}, {stats['max']:.4f}]", stats["count"]]
        for (method, _dataset, epsilon), stats in sorted(aggregate_results(results).items())
    ]
    print(render_table(["method", "epsilon", "micro-F1 (mean +/- std)", "range", "n"],
                       rows, title=f"cora_ml sweep in {elapsed:.1f}s"))
    if args.output:
        print(f"\nresults stored in {args.output}; rerunning resumes instantly.")


if __name__ == "__main__":
    main()
