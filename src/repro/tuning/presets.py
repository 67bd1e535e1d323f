"""The Appendix-Q hyperparameter grids for GCON, packaged as search spaces."""

from __future__ import annotations

import math

from repro.core.config import GCONConfig
from repro.core.model import GCON
from repro.exceptions import ConfigurationError
from repro.tuning.space import Categorical, SearchSpace
from repro.utils.validation import check_positive


def gcon_search_space(dataset: str = "cora_ml") -> SearchSpace:
    """The full Appendix-Q grid for GCON on a given dataset.

    Homophilous datasets (Cora-ML, CiteSeer, PubMed) use a single propagation
    branch with ``m1 ∈ {1, 2, 5, 10, ∞}``; the heterophilous Actor preset uses
    short multi-branch concatenations as in the paper.
    """
    if dataset in ("cora_ml", "citeseer", "pubmed"):
        steps = Categorical("propagation_steps", [(1,), (2,), (5,), (10,), (math.inf,)])
    elif dataset == "actor":
        steps = Categorical("propagation_steps", [(0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2)])
    else:
        raise ConfigurationError(f"unknown dataset preset {dataset!r}")
    return SearchSpace([
        Categorical("alpha", [0.2, 0.4, 0.6, 0.8]),
        steps,
        Categorical("loss", ["soft_margin", "pseudo_huber"]),
        Categorical("huber_delta", [0.1, 0.2, 0.5]),
        Categorical("lambda_reg", [0.01, 0.2, 1.0, 2.0]),
        Categorical("encoder_hidden", [8, 16, 64]),
        Categorical("use_pseudo_labels", [False, True]),
        Categorical("inference_alpha", [None, 0.1, 0.9]),
    ])


def gcon_quick_space() -> SearchSpace:
    """A small grid (a few dozen points) used by tests, examples and the CLI default."""
    return SearchSpace([
        Categorical("alpha", [0.4, 0.8]),
        Categorical("propagation_steps", [(1,), (2,)]),
        Categorical("lambda_reg", [0.2, 1.0]),
        Categorical("use_pseudo_labels", [True]),
    ])


def make_gcon_factory(epsilon: float, delta: float | None = None, **fixed):
    """An estimator factory binding the privacy budget and any fixed settings.

    The returned callable maps a search-space parameter dict to a fresh
    :class:`~repro.core.model.GCON`; search parameters override the fixed
    settings.
    """
    check_positive(epsilon, "epsilon")

    def factory(params: dict) -> GCON:
        settings = dict(fixed)
        settings.update(params)
        config = GCONConfig(epsilon=epsilon, delta=delta, **settings)
        return GCON(config)

    return factory
