"""Tests for the parallel experiment engine: expansion, determinism, resume.

The synthetic cell runner below is a module-level class so the process pool
can pickle it; its score is a pure function of the cell identity and seed,
which makes bitwise comparisons between schedules meaningful.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.runner import ExperimentRunner, aggregate_results
from repro.exceptions import ConfigurationError
from repro.runtime.cells import (
    ExperimentResult,
    derive_cell_seed,
    expand_cells,
    result_key,
)
from repro.runtime.engine import ParallelExperimentRunner, SweepExecutionError
from repro.runtime.store import JsonlResultStore
from repro.utils.random import as_rng, spawn_rngs


class SeededStubRunner:
    """Deterministic, picklable cell runner: score derived from the cell seed."""

    def __call__(self, cell):
        score = float(np.random.default_rng(cell.seed).random())
        return ExperimentResult(method=cell.method, dataset=cell.dataset,
                                epsilon=cell.epsilon, repeat=cell.repeat,
                                micro_f1=score)


class FailingRunner:
    def __call__(self, cell):
        raise RuntimeError("boom")


class TestExpandCells:
    def test_canonical_order_and_indices(self):
        cells = expand_cells(["m1", "m2"], ["d1"], [0.5, 1.0], repeats=2, seed=0)
        assert [c.index for c in cells] == list(range(8))
        assert [c.key() for c in cells[:4]] == [
            ("m1", "d1", 0.5, 0), ("m1", "d1", 0.5, 1),
            ("m1", "d1", 1.0, 0), ("m1", "d1", 1.0, 1),
        ]

    def test_repeat_axis_seeds_are_epsilon_independent(self):
        cells = expand_cells(["m"], ["d"], [0.5, 1.0, 2.0], repeats=2, seed=7)
        by_repeat = {}
        for cell in cells:
            by_repeat.setdefault(cell.repeat, set()).add(cell.seed)
        # One shared seed per repeat across all three epsilons...
        assert all(len(seeds) == 1 for seeds in by_repeat.values())
        # ...but different seeds across repeats, methods and master seeds.
        assert by_repeat[0] != by_repeat[1]
        other_master = expand_cells(["m"], ["d"], [0.5], repeats=1, seed=8)
        assert other_master[0].seed != cells[0].seed
        other_method = expand_cells(["m2"], ["d"], [0.5], repeats=1, seed=7)
        assert other_method[0].seed != cells[0].seed

    def test_repeat_axis_derivation_is_stable(self):
        # Pure function of the identifiers: independent of expansion order,
        # process and PYTHONHASHSEED.
        assert derive_cell_seed(7, "d", "m", 0) == \
            expand_cells(["m"], ["d"], [0.5], 1, seed=7)[0].seed

    def test_epsilon_axis_matches_legacy_serial_derivation(self):
        repeats = 2
        cells = expand_cells(["m1", "m2"], ["d1", "d2"], [0.5, 1.0], repeats,
                             seed=3, seed_axis="epsilon")
        master = as_rng(3)
        expected = []
        for _dataset in ("d1", "d2"):
            for _method in ("m1", "m2"):
                for _epsilon in (0.5, 1.0):
                    for rng in spawn_rngs(master, repeats):
                        expected.append(int(rng.integers(0, 2**31 - 1)))
        assert [c.seed for c in cells] == expected

    def test_group_shared_across_epsilons(self):
        cells = expand_cells(["m"], ["d"], [0.5, 1.0], repeats=2, seed=0)
        groups = {}
        for cell in cells:
            groups.setdefault((cell.dataset, cell.method, cell.repeat), set()).add(cell.group)
        assert all(len(g) == 1 for g in groups.values())
        assert len({next(iter(g)) for g in groups.values()}) == 2

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_cells([], ["d"], [1.0], 1)
        with pytest.raises(ConfigurationError):
            expand_cells(["m"], [], [1.0], 1)
        with pytest.raises(ConfigurationError):
            expand_cells(["m"], ["d"], [], 1)
        with pytest.raises(ConfigurationError):
            expand_cells(["m"], ["d"], [1.0], 0)
        with pytest.raises(ConfigurationError):
            expand_cells(["m"], ["d"], [1.0], 1, seed_axis="bogus")


class TestEngine:
    def _cells(self, repeats=3):
        return expand_cells(["m1", "m2"], ["d1", "d2"], [0.5, 1.0, 2.0],
                            repeats=repeats, seed=11)

    def test_serial_results_in_canonical_order(self):
        cells = self._cells()
        results = ParallelExperimentRunner(SeededStubRunner()).run(cells)
        assert [result_key(r) for r in results] == [c.key() for c in cells]

    def test_jobs4_bitwise_equals_serial(self):
        cells = self._cells()
        serial = ParallelExperimentRunner(SeededStubRunner(), jobs=1).run(cells)
        parallel = ParallelExperimentRunner(SeededStubRunner(), jobs=4).run(cells)
        assert [r.micro_f1 for r in parallel] == [r.micro_f1 for r in serial]
        # Aggregates (mean/std/min/max) are bitwise identical too.
        assert aggregate_results(parallel) == aggregate_results(serial)

    def test_empty_cell_list(self):
        assert ParallelExperimentRunner(SeededStubRunner()).run([]) == []

    def test_duplicate_cells_rejected(self):
        cells = self._cells(repeats=1)
        with pytest.raises(ConfigurationError):
            ParallelExperimentRunner(SeededStubRunner()).run(cells + cells[:1])

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelExperimentRunner(SeededStubRunner(), jobs=0)

    def test_cell_failure_is_wrapped(self):
        cells = self._cells(repeats=1)
        with pytest.raises(SweepExecutionError, match="failed"):
            ParallelExperimentRunner(FailingRunner()).run(cells)


class TestResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        cells = expand_cells(["m"], ["d"], [0.5, 1.0, 2.0], repeats=2, seed=5)
        path = tmp_path / "results.jsonl"

        store = JsonlResultStore(path)
        full = ParallelExperimentRunner(SeededStubRunner(), store=store).run(cells)
        assert len(store.load()) == len(cells)

        # A second run against the same store recomputes nothing: a runner
        # that would fail on any executed cell returns the stored results.
        resumed = ParallelExperimentRunner(FailingRunner(),
                                           store=JsonlResultStore(path)).run(cells)
        assert [r.micro_f1 for r in resumed] == [r.micro_f1 for r in full]

    def test_resume_from_partial_store_with_truncated_tail(self, tmp_path):
        cells = expand_cells(["m"], ["d"], [0.5, 1.0, 2.0], repeats=2, seed=5)
        path = tmp_path / "results.jsonl"

        # Record only the first half, then simulate a crash mid-append.
        store = JsonlResultStore(path)
        half = cells[: len(cells) // 2]
        for result in ParallelExperimentRunner(SeededStubRunner()).run(half):
            store.append(result)
        store.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"method": "m", "dataset"')

        resumed = ParallelExperimentRunner(SeededStubRunner(),
                                           store=JsonlResultStore(path)).run(cells)
        fresh = ParallelExperimentRunner(SeededStubRunner()).run(cells)
        assert [r.micro_f1 for r in resumed] == [r.micro_f1 for r in fresh]
        # The store now holds every cell exactly once.
        assert len(JsonlResultStore(path).load()) == len(cells)

    def test_store_results_only_used_for_matching_cells(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = JsonlResultStore(path)
        store.append(ExperimentResult("other", "d", 0.5, 0, 0.99))
        store.close()
        cells = expand_cells(["m"], ["d"], [0.5], repeats=1, seed=5)
        results = ParallelExperimentRunner(SeededStubRunner(),
                                           store=JsonlResultStore(path)).run(cells)
        assert results[0].method == "m"
        assert results[0].micro_f1 != 0.99


class TestExperimentRunnerDelegation:
    """The registry front-end must keep its legacy serial numbers."""

    class _SeedRecorder:
        def __init__(self):
            self.calls = set()

        def factory(self, epsilon, delta, seed):
            self.calls.add((epsilon, seed))
            return self

        def fit(self, graph, seed=None):
            return self

        def predict(self, graph, mode=None):
            return graph.labels

    def test_legacy_seed_stream_preserved(self, tiny_graph):
        # Execution order is schedule-dependent (cells are grouped by repeat),
        # but every cell must receive exactly the seed the original serial
        # nested loop would have drawn for it.
        recorder = self._SeedRecorder()
        runner = ExperimentRunner(repeats=2, seed=9)
        runner.register("m", recorder.factory)
        runner.run({"tiny": tiny_graph}, epsilons=[0.5, 1.0])

        master = as_rng(9)
        expected = set()
        for epsilon in (0.5, 1.0):
            for rng in spawn_rngs(master, 2):
                expected.add((epsilon, int(rng.integers(0, 2**31 - 1))))
        assert recorder.calls == expected

    def test_jobs_parameter_validated(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(jobs=0)


class TestFigureCellRunnerIntegration:
    """End-to-end: real GCON/MLP cells through the engine, serial vs pooled."""

    def _settings(self):
        from repro.evaluation.figures import FigureSettings

        return FigureSettings(scale=0.06, repeats=1, epochs=20, encoder_epochs=25,
                              encoder_dim=8, encoder_hidden=16,
                              datasets=("cora_ml",), epsilons=(0.5, 2.0))

    def test_jobs2_bitwise_equals_serial_with_real_models(self):
        from repro.runtime.workers import FigureCellRunner, clear_worker_memos

        settings = self._settings()
        cells = expand_cells(["GCON", "MLP"], settings.datasets, settings.epsilons,
                             settings.repeats, seed=settings.seed)
        clear_worker_memos()
        serial = ParallelExperimentRunner(FigureCellRunner(settings=settings),
                                          jobs=1).run(cells)
        clear_worker_memos()
        parallel = ParallelExperimentRunner(FigureCellRunner(settings=settings),
                                            jobs=2).run(cells)
        assert [r.micro_f1 for r in parallel] == [r.micro_f1 for r in serial]
        assert aggregate_results(parallel) == aggregate_results(serial)

    def test_preparation_reused_across_epsilon_axis(self, monkeypatch):
        from repro.core.model import GCON
        from repro.runtime.workers import FigureCellRunner, clear_worker_memos

        calls = []
        prepare = GCON.prepare

        def counting_prepare(self, graph, seed=None):
            calls.append(seed)
            return prepare(self, graph, seed=seed)

        monkeypatch.setattr(GCON, "prepare", counting_prepare)
        settings = self._settings()
        cells = expand_cells(["GCON"], settings.datasets, settings.epsilons,
                             2, seed=settings.seed)
        clear_worker_memos()
        ParallelExperimentRunner(FigureCellRunner(settings=settings)).run(cells)
        # Two epsilons in each of two (method, dataset, repeat) groups:
        # exactly one preparation (encoder + propagation) per epsilon axis.
        assert sorted(calls) == sorted({cell.seed for cell in cells})
        assert len(calls) == 2


class TestResumeContext:
    def test_changed_context_recomputes_instead_of_reusing(self, tmp_path):
        cells = expand_cells(["m"], ["d"], [0.5, 1.0], repeats=1, seed=5)
        path = tmp_path / "results.jsonl"

        first = ParallelExperimentRunner(
            SeededStubRunner(), store=JsonlResultStore(path),
            resume_context={"scale": 0.06}).run(cells)

        # Same context: everything is reused (a failing runner proves it).
        reused = ParallelExperimentRunner(
            FailingRunner(), store=JsonlResultStore(path),
            resume_context={"scale": 0.06}).run(cells)
        assert [r.micro_f1 for r in reused] == [r.micro_f1 for r in first]

        # Different context: the stored records must NOT satisfy the sweep.
        with pytest.raises(SweepExecutionError):
            ParallelExperimentRunner(
                FailingRunner(), store=JsonlResultStore(path),
                resume_context={"scale": 0.25}).run(cells)

    def test_no_context_keeps_plain_key_matching(self, tmp_path):
        cells = expand_cells(["m"], ["d"], [0.5], repeats=1, seed=5)
        path = tmp_path / "results.jsonl"
        ParallelExperimentRunner(SeededStubRunner(),
                                 store=JsonlResultStore(path)).run(cells)
        reused = ParallelExperimentRunner(FailingRunner(),
                                          store=JsonlResultStore(path)).run(cells)
        assert len(reused) == 1


class SlowFailingRunner:
    """Fails on method 'bad' (after a delay); succeeds instantly otherwise."""

    def __call__(self, cell):
        if cell.method == "bad":
            import time

            time.sleep(0.3)
            raise RuntimeError("boom")
        return SeededStubRunner()(cell)


class TestPartialFailurePersistence:
    def test_completed_groups_are_stored_before_the_failure_raises(self, tmp_path):
        cells = expand_cells(["good", "bad"], ["d"], [0.5, 1.0], repeats=1, seed=5)
        path = tmp_path / "results.jsonl"
        with pytest.raises(SweepExecutionError):
            ParallelExperimentRunner(SlowFailingRunner(), jobs=2,
                                     store=JsonlResultStore(path)).run(cells)
        stored = JsonlResultStore(path).load()
        # The 'good' group finished well before 'bad' failed; its two cells
        # must survive in the store so a resume does not recompute them.
        assert {result_key(r) for r in stored} == {
            ("good", "d", 0.5, 0), ("good", "d", 1.0, 0),
        }
