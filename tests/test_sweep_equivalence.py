"""Equivalence harness: the vectorised epsilon-sweep path vs the serial fit path.

The sweep fast path must never change the numbers.  This suite pins that down
at three layers:

* :class:`SweepSolver` against per-epsilon :meth:`GCON.fit`, across solver
  strategies, losses, propagation settings and pseudo-label modes on small
  random graphs — accuracies bitwise identical or within 1e-10 (the
  ``"serial"`` strategy must be *bitwise* identical, parameters included);
* the engine's group fast path (:meth:`FigureCellRunner.run_group`) against
  the per-cell reference path (``runner(cell)``) across methods x datasets x
  epsilons;
* the :class:`GconVariantCellRunner` epsilon-axis fast path against its
  per-cell reference.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import GCONConfig
from repro.core.model import GCON
from repro.core.sweep import SWEEP_STRATEGIES, SweepSolver
from repro.exceptions import ConfigurationError
from repro.graphs.generators import CitationGraphSpec, generate_citation_graph
from repro.runtime.cells import expand_cells
from repro.runtime.engine import ParallelExperimentRunner
from repro.runtime.workers import (
    FigureCellRunner,
    GconVariantCellRunner,
    clear_worker_memos,
)

EPSILONS = [0.5, 1.0, 2.0, 4.0]
ACCURACY_TOL = 1e-10


def small_random_graph(seed: int, num_nodes: int = 120, homophily: float = 0.8):
    spec = CitationGraphSpec(
        name=f"rand{seed}", num_nodes=num_nodes, num_edges=3 * num_nodes,
        num_features=48, num_classes=3, homophily=homophily, feature_active=8,
        feature_signal=0.6, train_per_class=8, num_val=15, num_test=40,
    )
    return generate_citation_graph(spec, seed=seed)


def base_config(**overrides) -> GCONConfig:
    # gtol=1e-8: accuracies are compared at 1e-10, i.e. argmax-identical.  The
    # fast strategies agree with serial only to ~2*gtol/mu in parameters, so a
    # tight gtol keeps that disagreement orders of magnitude below any
    # realistic argmax margin and the accuracy comparison deterministic.
    params = dict(epsilon=1.0, alpha=0.8, propagation_steps=(2,), encoder_dim=8,
                  encoder_hidden=16, encoder_epochs=25, max_iterations=500,
                  gtol=1e-8)
    params.update(overrides)
    return GCONConfig(**params)


def serial_reference(config: GCONConfig, graph, epsilons, seed: int) -> list[GCON]:
    return [GCON(replace(config, epsilon=epsilon)).fit(graph, seed=seed)
            for epsilon in epsilons]


class TestSweepSolverAgainstSerialFit:
    """Property-style grid: every strategy matches per-epsilon fit."""

    @pytest.mark.parametrize("strategy", SWEEP_STRATEGIES)
    @pytest.mark.parametrize("graph_seed", [3, 11])
    def test_accuracies_match_serial_fits(self, strategy, graph_seed):
        graph = small_random_graph(graph_seed)
        config = base_config()
        seed = 5
        reference = serial_reference(config, graph, EPSILONS, seed)
        models = SweepSolver(config, strategy=strategy).fit_models(
            graph, EPSILONS, seed=seed)
        for model, ref in zip(models, reference):
            for mode in ("private", "public"):
                assert abs(model.score(graph, mode=mode)
                           - ref.score(graph, mode=mode)) <= ACCURACY_TOL

    @pytest.mark.parametrize("config_overrides", [
        dict(loss="pseudo_huber"),
        dict(propagation_steps=(1, "inf"), alpha=0.6),
        dict(use_pseudo_labels=True, pseudo_label_mode="balanced"),
        dict(non_private=True),
    ])
    def test_accuracies_match_across_configurations(self, config_overrides):
        graph = small_random_graph(7)
        config = base_config(**config_overrides)
        seed = 2
        reference = serial_reference(config, graph, EPSILONS, seed)
        for strategy in ("warm_start", "batched"):
            models = SweepSolver(config, strategy=strategy).fit_models(
                graph, EPSILONS, seed=seed)
            for model, ref in zip(models, reference):
                assert abs(model.score(graph) - ref.score(graph)) <= ACCURACY_TOL

    def test_serial_strategy_is_bitwise_identical(self):
        """strategy="serial" is the reference path: parameters, perturbation
        diagnostics and scores must all be bitwise equal to per-epsilon fit."""
        graph = small_random_graph(3)
        config = base_config()
        seed = 9
        reference = serial_reference(config, graph, EPSILONS, seed)
        solves = SweepSolver(config, strategy="serial").solve(graph, EPSILONS, seed=seed)
        for solve, ref in zip(solves, reference):
            assert np.array_equal(solve.theta, ref.theta_)
            assert solve.perturbation == ref.perturbation_
            assert solve.solver_result.objective_value \
                == ref.solver_result_.objective_value

    @pytest.mark.parametrize("strategy", ["warm_start", "batched"])
    def test_fast_strategies_reach_the_serial_minimiser(self, strategy):
        """Warm starts / batching change the path, never the destination: every
        solve converges and lands within solver tolerance of the cold minimiser."""
        graph = small_random_graph(5)
        config = base_config()
        seed = 1
        reference = serial_reference(config, graph, EPSILONS, seed)
        solves = SweepSolver(config, strategy=strategy).solve(graph, EPSILONS, seed=seed)
        for solve, ref in zip(solves, reference):
            assert solve.solver_result.converged
            # Strong convexity bounds the distance to the optimum by
            # gradient_norm / mu; both solves stop at gtol, so they agree to
            # ~2 * gtol / quadratic_coefficient.
            mu = solve.perturbation.total_quadratic_coefficient
            tolerance = 4 * config.gtol / mu
            assert float(np.max(np.abs(solve.theta - ref.theta_))) <= tolerance

    def test_rejects_mismatched_prepared_inputs(self):
        graph = small_random_graph(3)
        config = base_config()
        prepared = GCON(config).prepare(graph, seed=0)
        with pytest.raises(ConfigurationError):
            SweepSolver(base_config(alpha=0.5)).solve(
                graph, EPSILONS, seed=0, prepared=prepared)
        with pytest.raises(ConfigurationError):
            SweepSolver(config).solve(graph, EPSILONS, seed=1, prepared=prepared)

    def test_empty_epsilons_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepSolver(base_config()).solve(small_random_graph(3), [])


class PerCell:
    """Hides a runner's group protocol: the engine then runs every cell
    through ``runner(cell)``, the per-cell reference path."""

    def __init__(self, runner):
        self.runner = runner

    def __call__(self, cell):
        return self.runner(cell)


class TestEngineFastPathEquivalence:
    """The engine's group dispatch produces the per-cell reference numbers."""

    def _settings(self, **overrides):
        from repro.evaluation.figures import FigureSettings

        # extra_gcon gtol: see base_config — keeps the fast-vs-reference
        # parameter gap far below any argmax decision margin.
        params = dict(scale=0.06, repeats=2, seed=0, epochs=20, encoder_epochs=25,
                      encoder_dim=8, encoder_hidden=16, datasets=("cora_ml",),
                      epsilons=tuple(EPSILONS), extra_gcon={"gtol": 1e-8})
        params.update(overrides)
        return FigureSettings(**params)

    def _run(self, runner, cells):
        clear_worker_memos()
        return ParallelExperimentRunner(runner).run(cells)

    def test_methods_by_datasets_by_epsilons_match_reference(self):
        """GCON takes the sweep solver, MLP falls back per cell; both must
        reproduce the reference path exactly."""
        settings = self._settings()
        cells = expand_cells(["GCON", "MLP"], settings.datasets, settings.epsilons,
                             settings.repeats, seed=settings.seed)
        runner = FigureCellRunner(settings=settings)
        reference = self._run(PerCell(runner), cells)
        fast = self._run(runner, cells)
        for ref, got in zip(reference, fast):
            assert (ref.method, ref.dataset, ref.epsilon, ref.repeat) \
                == (got.method, got.dataset, got.epsilon, got.repeat)
            assert abs(ref.micro_f1 - got.micro_f1) <= ACCURACY_TOL

    def test_variant_runner_epsilon_axis_matches_reference(self):
        settings = self._settings(repeats=1)
        overrides = {"alpha=0.4": {"alpha": 0.4}, "alpha=0.8": {"alpha": 0.8}}
        cells = expand_cells(list(overrides), settings.datasets, settings.epsilons,
                             settings.repeats, seed=settings.seed)
        runner = GconVariantCellRunner(settings=settings, overrides=overrides,
                                       axis="epsilon")
        reference = self._run(PerCell(runner), cells)
        fast = self._run(runner, cells)
        for ref, got in zip(reference, fast):
            assert abs(ref.micro_f1 - got.micro_f1) <= ACCURACY_TOL

    def test_variant_runner_steps_axis_uses_reference_path(self):
        """A steps-axis group changes the preparation per cell, so the fast
        path must decline it and produce bitwise reference results."""
        settings = self._settings(repeats=1)
        overrides = {"alpha=0.8": {"alpha": 0.8}}
        cells = expand_cells(list(overrides), settings.datasets, (1.0, 2.0),
                             settings.repeats, seed=settings.seed)
        runner = GconVariantCellRunner(settings=settings, overrides=overrides,
                                       axis="steps")
        assert not runner.wants_group(cells)
        reference = self._run(PerCell(runner), cells)
        fast = self._run(runner, cells)
        direct = runner.run_group(cells)
        for ref, got, declined in zip(reference, fast, direct):
            assert ref.micro_f1 == got.micro_f1 == declined.micro_f1

    def test_serial_fallback_groups_stream_per_cell(self, tmp_path):
        """Groups the fast path declines (here: MLP) must stream each finished
        cell to the store immediately in serial mode, so a crash mid-group
        loses at most the cell being solved."""
        from repro.runtime.store import JsonlResultStore

        settings = self._settings(repeats=1)
        cells = expand_cells(["MLP"], settings.datasets, settings.epsilons,
                             settings.repeats, seed=settings.seed)
        runner = FigureCellRunner(settings=settings)
        assert not runner.wants_group(cells)

        calls = {"count": 0}
        original = FigureCellRunner.__call__

        def exploding_call(self, cell):
            if calls["count"] == 2:
                raise RuntimeError("simulated crash on the third cell")
            calls["count"] += 1
            return original(self, cell)

        clear_worker_memos()
        path = tmp_path / "crash.jsonl"
        engine = ParallelExperimentRunner(runner, store=JsonlResultStore(path))
        FigureCellRunner.__call__ = exploding_call
        try:
            with pytest.raises(Exception, match="simulated crash"):
                engine.run(cells)
        finally:
            FigureCellRunner.__call__ = original
        # The two cells finished before the crash were persisted individually.
        assert len(JsonlResultStore(path).load()) == 2

    def test_resumed_partial_group_matches_full_run(self, tmp_path):
        """A group resumed with only a subset of its epsilons pending still
        solves the remaining budgets to the reference numbers."""
        from repro.runtime.store import JsonlResultStore

        settings = self._settings(repeats=1)
        cells = expand_cells(["GCON"], settings.datasets, settings.epsilons,
                             settings.repeats, seed=settings.seed)
        path = tmp_path / "resume.jsonl"
        reference = self._run(PerCell(FigureCellRunner(settings=settings)), cells)

        # First pass: persist only the two middle epsilon cells.
        store = JsonlResultStore(path)
        for record in reference[1:3]:
            store.append(record)
        store.close()

        clear_worker_memos()
        engine = ParallelExperimentRunner(FigureCellRunner(settings=settings),
                                          store=JsonlResultStore(path))
        resumed = engine.run(cells)
        assert len(resumed) == len(reference)
        for ref, got in zip(reference, resumed):
            assert abs(ref.micro_f1 - got.micro_f1) <= ACCURACY_TOL

    @pytest.mark.parametrize("epsilons", [(0.5, 2.0), (1.0,)],
                             ids=["swept-group", "single-cell"])
    def test_preparation_store_miss_and_hit_match_storeless_run(
            self, tmp_path, epsilons):
        """With a preparation store, a sweep gives the store-less numbers
        bitwise, both when it fills the store (a miss) and when a fresh
        worker reads it back (a hit).  A swept GCON group goes through
        ``run_group``, a single-epsilon cell through ``runner(cell)``."""
        from repro.runtime.workers import preparation_store

        settings = self._settings(repeats=1, epsilons=epsilons)
        cells = expand_cells(["GCON"], settings.datasets, settings.epsilons,
                             settings.repeats, seed=settings.seed)
        reference = self._run(FigureCellRunner(settings=settings), cells)
        cache = str(tmp_path / "prep")
        runner = FigureCellRunner(settings=settings, preparation_cache=cache)
        for expected_stats in ({"hits": 0, "misses": 1}, {"hits": 1, "misses": 0}):
            got = self._run(runner, cells)
            assert preparation_store(cache).stats == expected_stats
            assert [(r.epsilon, r.micro_f1) for r in got] \
                == [(r.epsilon, r.micro_f1) for r in reference]
