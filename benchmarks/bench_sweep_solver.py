"""The vectorised epsilon-sweep solver versus per-cell fits on one preparation.

Every cell of a GCON epsilon axis shares one epsilon-independent preparation
(encoder training plus propagation).  Given that preparation, fitting the
cells one by one still runs one cold convex solve and one full inference
pass per cell.  The sweep-solver fast path
(:class:`~repro.core.sweep.SweepSolver`, dispatched through the engine's
group protocol) removes both costs: the budgets are solved against the shared
feature matrix with warm starts, and every model is scored through one shared
inference feature matrix.

This benchmark runs the same 8-epsilon GCON sweep both ways on the same
preparations, computed once per group up front and kept out of the timing,
so the comparison isolates exactly the per-cell work the fast path
vectorises.  The reference fits each cell with ``GCON.fit(..., prepared=...)``
(bitwise equal to a cold fit) and scores each model on its own; the fast
path is the runners' group solve.  It asserts

* the fast path's numbers equal the reference's, and
* a >= 2x wall-clock speedup (the acceptance bar).

Two informational configurations run the whole sweep through the engine from
a cold worker (no graph, store or propagation memo): the first computes every
preparation and fills a content-addressed
:class:`~repro.core.persistence.PreparationStore`, the second skips encoder
training and propagation by loading the bundles back from disk.  Both must
reproduce the reference numbers too.
"""

from __future__ import annotations

import time

from benchmarks.conftest import bench_settings, is_smoke, record
from repro.core.propagation import get_default_cache, propagation_cache
from repro.evaluation.reporting import render_table
from repro.runtime.cells import expand_cells, result_key
from repro.runtime.engine import ParallelExperimentRunner
from repro.runtime.workers import (
    FigureCellRunner,
    _result,
    _run_epsilon_sweep_group,
    clear_worker_memos,
    score_estimator,
)

EPSILONS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)
REPEATS = 8
TIMING_ROUNDS = 7


def _timed_best_of(runs: dict, rounds=TIMING_ROUNDS):
    """Best-of-N wall clock of each ``runs[name]()``; a first, untimed call
    of each warms it up.  The runs take turns round by round, so a stretch
    of machine load slows every side alike instead of one side's rounds."""
    results = {name: run() for name, run in runs.items()}
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(rounds):
        for name, run in runs.items():
            start = time.perf_counter()
            results[name] = run()
            best[name] = min(best[name], time.perf_counter() - start)
    return results, best


def _prepared_groups(runner, cells):
    """Each group's cells, graph, delta and preparation (computed here,
    outside any timing)."""
    groups = {}
    for cell in cells:
        groups.setdefault(cell.group, []).append(cell)
    prepared = []
    for group_cells in groups.values():
        first = group_cells[0]
        graph, delta = runner._graph_and_delta(first)
        preparation = runner._build_estimator(first, delta).prepare(
            graph, seed=first.seed)
        prepared.append((group_cells, graph, delta, preparation))
    return prepared


def _per_cell(runner, prepared):
    results = []
    with propagation_cache(get_default_cache()):
        for group_cells, graph, delta, preparation in prepared:
            for cell in group_cells:
                estimator = runner._build_estimator(cell, delta)
                estimator.fit(graph, seed=cell.seed, prepared=preparation)
                results.append(_result(cell, score_estimator(
                    estimator, graph, runner.inference_mode)))
    return results


def _sweep_solved(runner, prepared):
    results = []
    with propagation_cache(get_default_cache()):
        for group_cells, graph, delta, preparation in prepared:
            estimators = [runner._build_estimator(cell, delta)
                          for cell in group_cells]
            scores = _run_epsilon_sweep_group(group_cells, graph, estimators,
                                              preparation, runner.inference_mode)
            results.extend(map(_result, group_cells, scores))
    return results


def _cold_engine_run(settings, cells, preparation_cache):
    """One timed engine sweep from a cold worker: the graph memo, the
    preparation stores and the shared propagation cache are all emptied."""
    clear_worker_memos()
    get_default_cache().clear()
    runner = FigureCellRunner(settings=settings, preparation_cache=preparation_cache)
    start = time.perf_counter()
    results = ParallelExperimentRunner(runner).run(cells)
    return results, time.perf_counter() - start


def _run(settings, cells, prep_cache_dir):
    runner = FigureCellRunner(settings=settings)
    prepared = _prepared_groups(runner, cells)
    timed, seconds = _timed_best_of({
        "per_cell": lambda: _per_cell(runner, prepared),
        "fast": lambda: _sweep_solved(runner, prepared),
    })

    cache = str(prep_cache_dir)
    filled, filled_seconds = _cold_engine_run(settings, cells, cache)
    resumed, resumed_seconds = _cold_engine_run(settings, cells, cache)

    return {
        **timed,
        "filled": filled,
        "resumed": resumed,
        "per_cell_seconds": seconds["per_cell"],
        "fast_seconds": seconds["fast"],
        "filled_seconds": filled_seconds,
        "resumed_seconds": resumed_seconds,
    }


def test_sweep_solver_speedup(benchmark, tmp_path):
    # gtol=1e-8: the equality assertion below compares micro-F1 at 1e-10
    # (argmax-identical); a tight solver tolerance on BOTH paths keeps the
    # warm-start-vs-cold parameter gap far below any argmax decision margin,
    # so the comparison stays deterministic across BLAS builds.
    settings = bench_settings(datasets=("cora_ml",), repeats=REPEATS,
                              epsilons=EPSILONS, extra_gcon={"gtol": 1e-8})
    cells = expand_cells(["GCON"], settings.datasets, settings.epsilons,
                         settings.repeats, seed=settings.seed)
    outcome = benchmark.pedantic(_run, args=(settings, cells, tmp_path / "prep"),
                                 rounds=1, iterations=1)

    speedup = outcome["per_cell_seconds"] / max(outcome["fast_seconds"], 1e-9)
    rows = [
        ["per-cell fits on one preparation", f"{outcome['per_cell_seconds']:.3f}",
         "1.00x"],
        ["sweep solver (warm starts)",
         f"{outcome['fast_seconds']:.3f}", f"{speedup:.2f}x"],
        ["cold worker, filling a preparation store",
         f"{outcome['filled_seconds']:.3f}", "(informational)"],
        ["cold worker + preparation store",
         f"{outcome['resumed_seconds']:.3f}", "(informational)"],
    ]
    record("sweep_solver",
           render_table(["configuration", "seconds", "speedup"], rows,
                        title=f"GCON epsilon sweep, {len(cells)} cells "
                              f"(scale={settings.scale:g}, "
                              f"epsilons={len(settings.epsilons)}, "
                              f"repeats={settings.repeats})"))

    # The fast path, and the engine with a preparation store (filled, then
    # read back), must reproduce the per-cell reference numbers.
    reference = {result_key(r): r.micro_f1 for r in outcome["per_cell"]}
    assert len(reference) == len(cells)
    for name in ("fast", "filled", "resumed"):
        got = {result_key(r): r.micro_f1 for r in outcome[name]}
        assert got.keys() == reference.keys()
        for key, micro_f1 in got.items():
            assert abs(reference[key] - micro_f1) <= 1e-10

    # The headline claim: >= 2x over per-cell fits on the 8-epsilon sweep.
    # The smoke grid collapses to 2 epsilons of sub-second work, where the
    # ratio is dominated by scheduler noise on shared CI runners — there the
    # timing is reported above but not asserted on (the equality checks still
    # gate correctness).
    if not is_smoke():
        assert speedup >= 2.0
