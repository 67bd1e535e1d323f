"""Picklable cell runners for the figure/table sweeps.

A cell runner is the unit of work the engine ships to a process pool, so it
must be picklable and cheap to serialise: these dataclasses carry only the
:class:`~repro.evaluation.figures.FigureSettings` plus a few scalars, and
rebuild graphs/method registries inside the worker process, where graphs are
loaded once per ``(dataset, scale, seed)``.

Both runners implement the engine's *group protocol* (``wants_group`` and
``run_group``).  A GCON group along the epsilon axis with two or more cells
is solved in one vectorised :class:`~repro.core.sweep.SweepSolver` pass: one
epsilon-independent preparation (encoder training plus propagation, Lines
1-7 of Algorithm 1), warm-started convex solves and one shared inference
feature matrix, instead of one cold fit per cell.  Every other group
(non-GCON methods, single cells, step-axis groups) runs cell by cell through
``runner(cell)``, the reference path the fast path agrees with up to solver
tolerance.

When a content-addressed :class:`~repro.core.persistence.PreparationStore`
is configured (the ``preparation_cache`` field or the
``REPRO_PREPARATION_CACHE`` environment variable), GCON preparations are
fetched from and persisted to it, so repeats and resumed sweeps skip encoder
training and propagation; a store hit is bitwise identical to a cold
preparation.

All evaluation-layer imports are deferred to call time to keep the module
import graph acyclic (``figures`` imports this module).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.model import GCON
from repro.core.propagation import get_default_cache, propagation_cache
from repro.core.sweep import SweepSolver
from repro.runtime.cells import ExperimentResult, SweepCell, epsilon_axis
from repro.utils.lru import LRUDict

_GRAPH_MEMO = LRUDict(max_entries=8)
_DISK_STORES: dict[str, object] = {}


def clear_worker_memos() -> None:
    """Drop the per-process graph memo and preparation stores (used by tests)."""
    _GRAPH_MEMO.clear()
    _DISK_STORES.clear()


def _load_graph(dataset: str, scale: float, seed: int):
    from repro.graphs.datasets import load_dataset

    return _GRAPH_MEMO.get_or_compute(
        (dataset, scale, seed),
        lambda: load_dataset(dataset, scale=scale, seed=seed))


def preparation_store(path: str | None = None):
    """The per-process :class:`PreparationStore` for ``path`` (or the
    ``REPRO_PREPARATION_CACHE`` environment variable), ``None`` when disabled.

    Stores are memoised per root so their hit/miss counters accumulate across
    the cells a worker executes.
    """
    from repro.core.persistence import PreparationStore

    if path is not None and path.strip():
        resolved = PreparationStore(path.strip())
    else:
        # The env lookup and its disabled sentinels live in from_env only.
        resolved = PreparationStore.from_env()
    if resolved is None:
        return None
    root = str(resolved.root)
    store = _DISK_STORES.get(root)
    if store is None:
        store = _DISK_STORES.setdefault(root, resolved)
    return store


def _prepared_inputs(estimator: GCON, graph, seed: int,
                     preparation_cache: str | None = None):
    """The epsilon-independent preparation of ``estimator`` on ``graph``:
    from the on-disk store when one is configured, else a cold ``prepare``."""
    store = preparation_store(preparation_cache)
    if store is None:
        return estimator.prepare(graph, seed=seed)
    return store.get_or_prepare(estimator, graph, seed)


def score_estimator(estimator, graph, inference_mode: str) -> float:
    """Test-split micro-F1, passing the inference mode when the estimator
    supports it (shared by the worker runners and the registry runner)."""
    from repro.evaluation.metrics import micro_f1

    try:
        predictions = np.asarray(estimator.predict(graph, mode=inference_mode))
    except TypeError:
        predictions = np.asarray(estimator.predict(graph))
    return micro_f1(graph.labels[graph.test_idx], predictions[graph.test_idx])


# --------------------------------------------------------------------------- #
# the epsilon-axis fast path shared by both runners
# --------------------------------------------------------------------------- #
def _config_identity(config) -> dict:
    """A config's fields minus epsilon: equal identities <=> same sweep family."""
    payload = dataclasses.asdict(config)
    payload.pop("epsilon", None)
    payload.pop("normalized_steps", None)
    return payload


def _shared_inference_features(model, graph, inference_mode: str) -> np.ndarray:
    """The matrix ``F`` with ``decision_scores = F @ theta`` for every model of
    an epsilon sweep (same encoder, same propagation — only theta differs).

    Delegates to :meth:`GCON.inference_features`, so ``argmax(F @ theta)`` is
    bitwise identical to per-model prediction.
    """
    return model.inference_features(graph, mode=inference_mode)


def _one_sweep_family(estimators) -> bool:
    """Whether ``estimators`` are GCON models whose configurations differ in
    epsilon only, so one preparation and one sweep solve serve them all."""
    if not all(isinstance(estimator, GCON) for estimator in estimators):
        return False
    base_identity = _config_identity(estimators[0].config)
    return all(_config_identity(estimator.config) == base_identity
               for estimator in estimators[1:])


def _run_epsilon_sweep_group(cells: list[SweepCell], graph, estimators, prepared,
                             inference_mode: str) -> list[float]:
    """Solve one epsilon axis of GCON cells against ``prepared`` in a single
    sweep pass and return the per-cell micro-F1 scores."""
    from repro.evaluation.metrics import micro_f1

    solves = SweepSolver(estimators[0].config).solve(
        graph, epsilon_axis(cells), seed=cells[0].seed, prepared=prepared)
    for estimator, solve in zip(estimators, solves):
        estimator.adopt_solution(
            theta=solve.theta, perturbation=solve.perturbation,
            solver_result=solve.solver_result, encoder=prepared.encoder,
            num_classes=graph.num_classes, graph=graph,
        )
    features = _shared_inference_features(estimators[0], graph, inference_mode)
    test_idx = graph.test_idx
    scores = []
    for estimator in estimators:
        predictions = np.argmax(features @ estimator.theta_, axis=1)
        scores.append(micro_f1(graph.labels[test_idx], predictions[test_idx]))
    return scores


def _result(cell: SweepCell, score: float) -> ExperimentResult:
    return ExperimentResult(method=cell.method, dataset=cell.dataset,
                            epsilon=cell.epsilon, repeat=cell.repeat,
                            micro_f1=score)


@dataclass
class _CellRunner:
    """The per-cell path and the group protocol both runners share.

    ``settings`` is the shared :class:`FigureSettings`; ``delta=None`` uses
    the paper's per-graph ``1/|E|`` convention and ``preparation_cache``
    points at an on-disk preparation store directory.  A subclass says how a
    cell's estimator is built (``_build_estimator(cell, delta)``) and which
    groups it sweep-solves (``wants_group(cells)``).
    """

    settings: "FigureSettings"
    inference_mode: str = "private"
    delta: float | None = None
    preparation_cache: str | None = None

    def _graph_and_delta(self, cell: SweepCell):
        settings = self.settings
        graph = _load_graph(cell.dataset, settings.scale, settings.seed)
        delta = self.delta if self.delta is not None else 1.0 / max(graph.num_edges, 1)
        return graph, delta

    def __call__(self, cell: SweepCell) -> ExperimentResult:
        """The per-cell reference path: one fit and one scoring pass."""
        graph, delta = self._graph_and_delta(cell)
        estimator = self._build_estimator(cell, delta)
        store = preparation_store(self.preparation_cache)
        with propagation_cache(get_default_cache()):
            if store is not None and isinstance(estimator, GCON):
                prepared = store.get_or_prepare(estimator, graph, cell.seed)
                estimator.fit(graph, seed=cell.seed, prepared=prepared)
            else:
                estimator.fit(graph, seed=cell.seed)
            score = score_estimator(estimator, graph, self.inference_mode)
        return _result(cell, score)

    def run_group(self, cells: list[SweepCell]) -> list[ExperimentResult]:
        """Sweep-solve a group :meth:`wants_group` takes; run others per cell."""
        if not self.wants_group(cells):
            return [self(cell) for cell in cells]
        graph, delta = self._graph_and_delta(cells[0])
        estimators = [self._build_estimator(cell, delta) for cell in cells]
        if not _one_sweep_family(estimators):
            return [self(cell) for cell in cells]
        with propagation_cache(get_default_cache()):
            prepared = _prepared_inputs(estimators[0], graph, cells[0].seed,
                                        self.preparation_cache)
            scores = _run_epsilon_sweep_group(cells, graph, estimators, prepared,
                                              self.inference_mode)
        return [_result(cell, score) for cell, score in zip(cells, scores)]


@dataclass
class FigureCellRunner(_CellRunner):
    """Runs one Figure-1-style cell: a registry method at one epsilon."""

    def _build_estimator(self, cell: SweepCell, delta: float):
        from repro.evaluation.figures import build_method_registry

        factory = build_method_registry(self.settings)[cell.method]
        return factory(cell.epsilon, delta, cell.seed)

    def wants_group(self, cells: list[SweepCell]) -> bool:
        """Whether this group takes the sweep fast path: a GCON method with
        two or more epsilons.

        The engine asks before dispatching: other groups run per cell, so
        each finished cell streams to the resumable store immediately.
        """
        if len(cells) < 2:
            return False
        try:
            probe = self._build_estimator(
                cells[0], self.delta if self.delta is not None else 1e-6)
        except Exception:
            return False
        return isinstance(probe, GCON)


@dataclass
class GconVariantCellRunner(_CellRunner):
    """Runs GCON-configuration sweeps (Figures 2-4): one named variant per
    "method", with the cell's float axis interpreted per ``axis``.

    * ``axis="epsilon"``: the cell's value is the privacy budget (Figure 4,
      one variant per restart probability);
    * ``axis="steps"``: the cell's value is the propagation step ``m1``
      (Figures 2-3) and the budget is pinned to ``fixed_epsilon``.

    ``overrides`` maps the variant label to :class:`GCONConfig` keyword
    overrides applied on top of the settings' defaults.  Epsilon-axis groups
    take the sweep-solver fast path; step-axis groups vary the preparation
    per cell, so they always run the per-cell reference path.
    """

    overrides: dict = field(default_factory=dict)
    axis: str = "epsilon"
    fixed_epsilon: float = 4.0

    def _build_estimator(self, cell: SweepCell, delta: float):
        from repro.evaluation.figures import default_gcon_config

        overrides = dict(self.overrides.get(cell.method, {}))
        if self.axis == "steps":
            epsilon = self.fixed_epsilon
            step = math.inf if math.isinf(cell.epsilon) else int(cell.epsilon)
            overrides["propagation_steps"] = (step,)
        else:
            epsilon = cell.epsilon
        return GCON(default_gcon_config(epsilon, delta, self.settings, **overrides))

    def wants_group(self, cells: list[SweepCell]) -> bool:
        """Epsilon-axis variant groups of two or more cells take the fast
        path; step-axis groups (whose preparation varies per cell) run cell
        by cell so each result streams to the store immediately."""
        return self.axis == "epsilon" and len(cells) >= 2
