"""Vectorised epsilon-sweep solving: many privacy budgets, one preparation.

The privacy guarantee of GCON is independent of the optimisation algorithm
(Remark after Theorem 1), and Lines 1-7 of Algorithm 1 — encoder training,
normalisation and propagation — do not depend on epsilon at all.  An epsilon
sweep therefore minimises a *family* of strongly convex objectives that share
one feature matrix and differ only in the Theorem-1 perturbation term.
:class:`SweepSolver` exploits both facts:

* the preparation is computed once per ``(config, graph, seed)``, or
  passed in (the sweep workers fetch it from a content-addressed
  :class:`~repro.core.persistence.PreparationStore` when one is
  configured), and shared across every budget;
* the convex solves run against the shared feature matrix either
  sequentially with warm starts (the epsilon_i minimiser initialises
  epsilon_{i+1}; the noise direction is shared across budgets, so adjacent
  minimisers are close) or jointly as one batched L-BFGS run over the
  stacked parameter matrix (one wide matmul per iteration).

Every strategy terminates each solve on the same ``gtol`` criterion as
:meth:`GCON.fit`, so the per-epsilon minimisers agree with the serial
reference path up to solver tolerance; ``strategy="serial"`` *is* the
reference path (cold solves, bitwise identical to per-epsilon ``fit``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import ConfigurationError
from repro.core.config import GCONConfig
from repro.core.model import (
    GCON,
    PreparedInputs,
    calibrate_perturbation,
    resolve_delta,
    validate_prepared_inputs,
)
from repro.core.objective import BatchedPerturbedObjective, PerturbedObjective
from repro.core.perturbation import PerturbationParameters, sample_noise_matrix
from repro.core.solver import (
    SolverResult,
    minimize_batched_objective,
    solve_objective_sweep,
)
from repro.graphs.graph import GraphDataset
from repro.utils.math import one_hot
from repro.utils.random import as_rng, spawn_rngs

SWEEP_STRATEGIES = ("warm_start", "batched", "serial")


@dataclass(frozen=True)
class SweepSolve:
    """The outcome of one epsilon cell of a sweep."""

    epsilon: float
    delta: float
    perturbation: PerturbationParameters
    solver_result: SolverResult

    @property
    def theta(self) -> np.ndarray:
        """The released parameters Θ_priv for this budget."""
        return self.solver_result.theta


class SweepSolver:
    """Solves an epsilon sweep of GCON against one shared preparation.

    Parameters
    ----------
    config:
        The base :class:`GCONConfig`; its ``epsilon`` field is replaced by
        each swept budget (everything else, including ``delta``, is shared).
    strategy:
        ``"warm_start"`` (default) solves the budgets sequentially, each
        initialised from the previous minimiser; ``"batched"`` stacks all
        budgets into one joint L-BFGS run
        (:class:`~repro.core.objective.BatchedPerturbedObjective`);
        ``"serial"`` runs independent cold solves — the reference path,
        bitwise identical to calling :meth:`GCON.fit` per epsilon.
    """

    def __init__(self, config: GCONConfig, *, strategy: str = "warm_start"):
        if strategy not in SWEEP_STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {SWEEP_STRATEGIES}, got {strategy!r}"
            )
        self.config = config
        self.strategy = strategy

    # ------------------------------------------------------------------ #
    # preparation
    # ------------------------------------------------------------------ #
    def prepare(self, graph: GraphDataset, seed: int | None = None) -> PreparedInputs:
        """The epsilon-independent preparation (Lines 1-7 of Algorithm 1)."""
        return GCON(self.config).prepare(graph, seed=seed)

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def solve(self, graph: GraphDataset, epsilons, seed: int | None = None,
              prepared: PreparedInputs | None = None) -> list[SweepSolve]:
        """Solve every budget in ``epsilons`` and return one :class:`SweepSolve` each.

        The noise generator of each budget is re-derived from ``seed`` exactly
        as :meth:`GCON.fit` derives it, so the perturbed objective of budget
        ``epsilon_i`` is identical to the one a serial ``fit`` at that budget
        would minimise; only the solver's starting point differs between
        strategies.
        """
        epsilons = [float(epsilon) for epsilon in epsilons]
        if not epsilons:
            raise ConfigurationError("at least one epsilon is required")
        if prepared is None:
            prepared = self.prepare(graph, seed=seed)
        else:
            validate_prepared_inputs(self.config, graph, seed, prepared)

        configs = [replace(self.config, epsilon=epsilon) for epsilon in epsilons]
        delta = resolve_delta(self.config, graph)
        num_classes = graph.num_classes
        train_idx = prepared.train_idx
        features_train = prepared.aggregated[train_idx]
        labels_one_hot = one_hot(prepared.labels[train_idx], num_classes)
        num_labeled = train_idx.size
        dimension = prepared.aggregated.shape[1]

        calibrations = []
        for config in configs:
            loss, perturbation = calibrate_perturbation(
                config, delta=delta, num_labeled=num_labeled,
                num_classes=num_classes, dimension=dimension,
            )
            # fit spawns (encoder, noise, pseudo) generators from a fresh
            # as_rng(seed) on every call; reproducing that derivation per
            # budget keeps the noise draws bitwise identical to serial fits.
            _encoder_rng, noise_rng, _pseudo_rng = spawn_rngs(as_rng(seed), 3)
            noise = sample_noise_matrix(perturbation, rng=noise_rng)
            calibrations.append((loss, perturbation, noise))

        base = PerturbedObjective(
            features=features_train, labels_one_hot=labels_one_hot,
            loss=calibrations[0][0],
            quadratic_coefficient=calibrations[0][1].total_quadratic_coefficient,
            noise=calibrations[0][2],
        )
        objectives = [base] + [
            base.with_perturbation(perturbation.total_quadratic_coefficient, noise)
            for _loss, perturbation, noise in calibrations[1:]
        ]

        if self.strategy == "batched":
            batched = BatchedPerturbedObjective(
                base,
                [perturbation.total_quadratic_coefficient
                 for _loss, perturbation, _noise in calibrations],
                [noise for _loss, _perturbation, noise in calibrations],
            )
            results = minimize_batched_objective(
                batched, max_iterations=self.config.max_iterations * len(epsilons),
                gtol=self.config.gtol,
            )
        else:
            results = solve_objective_sweep(
                objectives,
                max_iterations=self.config.max_iterations, gtol=self.config.gtol,
                warm_start=self.strategy == "warm_start",
            )

        return [
            SweepSolve(epsilon=epsilon, delta=delta, perturbation=perturbation,
                       solver_result=result)
            for epsilon, (_loss, perturbation, _noise), result
            in zip(epsilons, calibrations, results)
        ]

    def fit_models(self, graph: GraphDataset, epsilons, seed: int | None = None,
                   prepared: PreparedInputs | None = None) -> list[GCON]:
        """Solve the sweep and return one ready-to-predict :class:`GCON` per budget."""
        if prepared is None:
            prepared = self.prepare(graph, seed=seed)
        solves = self.solve(graph, epsilons, seed=seed, prepared=prepared)
        models = []
        for solve in solves:
            model = GCON(replace(self.config, epsilon=solve.epsilon))
            model.adopt_solution(
                theta=solve.theta, perturbation=solve.perturbation,
                solver_result=solve.solver_result, encoder=prepared.encoder,
                num_classes=graph.num_classes, graph=graph,
            )
            models.append(model)
        return models
