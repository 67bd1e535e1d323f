"""Regeneration of every table and figure of the paper's evaluation section.

Each ``figure*``/``table*`` function reproduces the corresponding experiment
of Section VI on the synthetic dataset presets and returns the same series the
paper plots (micro-F1 versus privacy budget / propagation step / restart
probability).  The benchmark harness under ``benchmarks/`` calls these
functions with scaled-down settings and prints the series; absolute numbers
differ from the paper (synthetic data, smaller graphs) but the qualitative
shape is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.baselines import (
    DPGCN,
    DPSGDGCN,
    GAP,
    GCNClassifier,
    LPGNet,
    MLPClassifier,
    ProGAP,
)
from repro.core.config import GCONConfig
from repro.core.model import GCON
from repro.evaluation.runner import ExperimentResult, ExperimentRunner, series_from_results
from repro.graphs.datasets import dataset_statistics, load_dataset, reference_statistics
from repro.runtime.cells import expand_cells
from repro.runtime.engine import ParallelExperimentRunner
from repro.runtime.store import JsonlResultStore
from repro.runtime.workers import FigureCellRunner, GconVariantCellRunner

_ = (ExperimentResult, ExperimentRunner)  # re-exported for API compatibility


@dataclass
class FigureSettings:
    """Knobs shared by all figure regenerations (scaled down for benchmarks)."""

    scale: float = 0.25
    repeats: int = 1
    seed: int = 0
    epochs: int = 120
    encoder_epochs: int = 200
    encoder_dim: int = 16
    encoder_hidden: int = 64
    lambda_reg: float = 0.2
    use_pseudo_labels: bool = True
    datasets: tuple = ("cora_ml", "citeseer", "pubmed", "actor")
    epsilons: tuple = (0.5, 1.0, 2.0, 3.0, 4.0)
    jobs: int = 1
    extra_gcon: dict = field(default_factory=dict)
    # An execution knob, never part of resume_context: ``preparation_cache``
    # points at an on-disk content-addressed preparation store directory
    # (defaults to the REPRO_PREPARATION_CACHE environment variable when
    # None); cache hits are bitwise identical to cold preparation.
    preparation_cache: str | None = None

    def resume_context(self) -> dict:
        """The numeric knobs a store-backed resume must agree on.

        Sweep axes (datasets, epsilons, repeats) are deliberately excluded:
        they are part of each cell's identity, so extending a sweep along an
        axis resumes cleanly while changing any knob below forces a recompute.
        """
        return dict(
            scale=self.scale, seed=self.seed, epochs=self.epochs,
            encoder_epochs=self.encoder_epochs, encoder_dim=self.encoder_dim,
            encoder_hidden=self.encoder_hidden, lambda_reg=self.lambda_reg,
            use_pseudo_labels=self.use_pseudo_labels,
            extra_gcon=sorted(self.extra_gcon.items()),
        )


def default_gcon_config(epsilon: float, delta: float, settings: FigureSettings,
                        **overrides) -> GCONConfig:
    """The GCON configuration used by the figure experiments."""
    params = dict(
        epsilon=epsilon,
        delta=delta,
        alpha=0.8,
        propagation_steps=(2,),
        lambda_reg=settings.lambda_reg,
        encoder_dim=settings.encoder_dim,
        encoder_hidden=settings.encoder_hidden,
        encoder_epochs=settings.encoder_epochs,
        use_pseudo_labels=settings.use_pseudo_labels,
    )
    params.update(settings.extra_gcon)
    params.update(overrides)
    return GCONConfig(**params)


def build_method_registry(settings: FigureSettings) -> dict[str, callable]:
    """Factories ``(epsilon, delta, seed) -> estimator`` for every Figure-1 method."""
    epochs = settings.epochs

    def gcon_factory(epsilon, delta, seed):
        return GCON(default_gcon_config(epsilon, delta, settings))

    return {
        "GCON": gcon_factory,
        "DP-SGD": lambda eps, delta, seed: DPSGDGCN(epsilon=eps, delta=delta),
        "DPGCN": lambda eps, delta, seed: DPGCN(epsilon=eps, delta=delta, epochs=epochs),
        "LPGNet": lambda eps, delta, seed: LPGNet(epsilon=eps, delta=delta, epochs=epochs),
        "GAP": lambda eps, delta, seed: GAP(epsilon=eps, delta=delta, epochs=epochs),
        "ProGAP": lambda eps, delta, seed: ProGAP(epsilon=eps, delta=delta,
                                                  epochs=max(epochs // 2, 50)),
        "MLP": lambda eps, delta, seed: MLPClassifier(epochs=epochs),
        "GCN (non-DP)": lambda eps, delta, seed: GCNClassifier(epochs=epochs),
    }


# --------------------------------------------------------------------------- #
# Table II
# --------------------------------------------------------------------------- #
def table2_dataset_statistics(settings: FigureSettings | None = None) -> dict:
    """Regenerate Table II: dataset statistics of the four presets.

    Returns ``{"generated": [...], "reference": {...}}`` where ``reference``
    holds the paper's values for comparison.
    """
    settings = settings or FigureSettings()
    generated = dataset_statistics(list(settings.datasets), scale=settings.scale,
                                   seed=settings.seed)
    return {"generated": generated, "reference": reference_statistics()}


# --------------------------------------------------------------------------- #
# Figure 1: accuracy vs privacy budget for all methods
# --------------------------------------------------------------------------- #
def figure1_accuracy_vs_epsilon(settings: FigureSettings | None = None,
                                methods: list[str] | None = None,
                                store: JsonlResultStore | None = None,
                                progress: bool = False,
                                ) -> dict[str, dict[str, dict[float, float]]]:
    """Regenerate Figure 1: micro-F1 versus epsilon for every method and dataset.

    Runs through the parallel sweep engine: ``settings.jobs`` workers, with
    per-cell seeds shared across the epsilon axis so the workers reuse the
    epsilon-independent preparation of each ``(method, dataset, repeat)``.
    """
    settings = settings or FigureSettings()
    method_names = methods if methods is not None else list(build_method_registry(settings))
    cells = expand_cells(method_names, settings.datasets, settings.epsilons,
                         settings.repeats, seed=settings.seed)
    runner = FigureCellRunner(settings=settings,
                              preparation_cache=settings.preparation_cache)
    engine = ParallelExperimentRunner(runner,
                                      jobs=settings.jobs, store=store,
                                      progress=progress,
                                      resume_context=settings.resume_context())
    return series_from_results(engine.run(cells))


# --------------------------------------------------------------------------- #
# Figures 2 & 3: effect of the propagation step m1 (private / public test graph)
# --------------------------------------------------------------------------- #
def figure23_propagation_step(settings: FigureSettings | None = None,
                              inference_mode: str = "private",
                              steps: tuple = (1, 2, 5, 10, math.inf),
                              alphas: tuple = (0.2, 0.4, 0.6, 0.8),
                              epsilon: float = 4.0,
                              ) -> dict[str, dict[str, dict[float, float]]]:
    """Regenerate Figure 2 (private inference) or Figure 3 (public inference).

    Returns ``{dataset: {"alpha=a": {m1: f1}}}`` for the homophilous datasets.
    ``inference_mode`` selects between the two figures.
    """
    settings = settings or FigureSettings(datasets=("cora_ml", "citeseer", "pubmed"))
    datasets = [name for name in settings.datasets if name != "actor"]
    overrides = {f"alpha={alpha:g}": {"alpha": alpha} for alpha in alphas}
    step_axis = [float("inf") if step == math.inf else float(step) for step in steps]
    cells = expand_cells(list(overrides), datasets, step_axis, settings.repeats,
                         seed=settings.seed)
    runner = GconVariantCellRunner(settings=settings, overrides=overrides,
                                   axis="steps", fixed_epsilon=epsilon,
                                   inference_mode=inference_mode,
                                   preparation_cache=settings.preparation_cache)
    engine = ParallelExperimentRunner(runner, jobs=settings.jobs)
    return series_from_results(engine.run(cells))


# --------------------------------------------------------------------------- #
# Figure 4: effect of the restart probability alpha
# --------------------------------------------------------------------------- #
def figure4_restart_probability(settings: FigureSettings | None = None,
                                alphas: tuple = (0.2, 0.4, 0.6, 0.8),
                                epsilons: tuple | None = None,
                                propagation_step: int = 2,
                                ) -> dict[str, dict[str, dict[float, float]]]:
    """Regenerate Figure 4: micro-F1 versus epsilon for several restart probabilities."""
    settings = settings or FigureSettings(datasets=("cora_ml", "citeseer", "pubmed"))
    epsilons = epsilons or settings.epsilons
    datasets = [name for name in settings.datasets if name != "actor"]
    overrides = {
        f"alpha={alpha:g}": {"alpha": alpha, "propagation_steps": (propagation_step,)}
        for alpha in alphas
    }
    cells = expand_cells(list(overrides), datasets, epsilons, settings.repeats,
                         seed=settings.seed)
    runner = GconVariantCellRunner(settings=settings, overrides=overrides,
                                   axis="epsilon", inference_mode="private",
                                   preparation_cache=settings.preparation_cache)
    engine = ParallelExperimentRunner(runner, jobs=settings.jobs)
    return series_from_results(engine.run(cells))


# --------------------------------------------------------------------------- #
# Extension: edge-inference attack AUC versus epsilon
# --------------------------------------------------------------------------- #
def attack_auc_vs_epsilon(settings: FigureSettings | None = None,
                          epsilons: tuple = (0.5, 1.0, 4.0),
                          num_pairs: int = 300,
                          ) -> dict[str, dict[str, dict[float, float]]]:
    """Measure the link-stealing attack AUC against GCON and the non-private GCN.

    The paper motivates edge DP with such attacks (Section I); this extension
    quantifies the protection: the non-private GCN should be clearly
    attackable (AUC well above 0.5) while GCON's private-inference outputs
    should yield an AUC close to chance.
    """
    from repro.attacks import attack_auc, sample_edge_candidates, similarity_link_attack

    settings = settings or FigureSettings(datasets=("cora_ml",))
    dataset = settings.datasets[0]
    graph = load_dataset(dataset, scale=settings.scale, seed=settings.seed)
    delta = 1.0 / max(graph.num_edges, 1)
    pairs, labels = sample_edge_candidates(graph, num_pairs=num_pairs, rng=settings.seed)

    series: dict[str, dict[str, dict[float, float]]] = {dataset: {}}
    gcn = GCNClassifier(epochs=settings.epochs).fit(graph, seed=settings.seed)
    gcn_auc = attack_auc(similarity_link_attack(gcn.decision_scores(graph), pairs), labels)
    series[dataset]["GCN (non-DP)"] = {float(eps): gcn_auc for eps in epsilons}

    series[dataset]["GCON"] = {}
    for epsilon in epsilons:
        config = default_gcon_config(epsilon, delta, settings)
        model = GCON(config).fit(graph, seed=settings.seed)
        scores = model.decision_scores(graph, mode="private")
        auc = attack_auc(similarity_link_attack(scores, pairs), labels)
        series[dataset]["GCON"][float(epsilon)] = auc
    return series
