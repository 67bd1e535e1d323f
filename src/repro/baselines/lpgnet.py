"""LPGNet baseline (Kolluri et al., CCS 2022): link-private graph networks.

LPGNet never feeds the adjacency matrix to the network.  Instead it trains a
stack of MLPs; after each stage it derives, for every node, a vector of
degree counts towards the classes predicted by the previous stage
("cluster-degree vectors"), perturbs those vectors with the Laplace mechanism
(adding/removing one edge changes two entries by one each, so the L1
sensitivity is 2) and appends them to the input of the next MLP.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.baselines.base import BaseNodeClassifier, predict_logits, resolve_delta, \
    train_full_batch
from repro.exceptions import ConfigurationError
from repro.graphs.graph import GraphDataset
from repro.nn import Dropout, Linear, ReLU, Sequential
from repro.privacy.accountant import BudgetLedger
from repro.privacy.mechanisms import laplace_mechanism
from repro.utils.random import as_rng, spawn_rngs
from repro.utils.validation import check_positive


def cluster_degree_vectors(adjacency: sp.spmatrix, predicted_labels: np.ndarray,
                           num_classes: int) -> np.ndarray:
    """For each node, the number of neighbours predicted in each class."""
    adjacency = sp.csr_matrix(adjacency)
    predicted_labels = np.asarray(predicted_labels, dtype=np.int64)
    n = adjacency.shape[0]
    membership = np.zeros((n, num_classes), dtype=np.float64)
    membership[np.arange(n), predicted_labels] = 1.0
    return np.asarray(adjacency @ membership)


def _row_normalize(matrix: np.ndarray) -> np.ndarray:
    sums = matrix.sum(axis=1, keepdims=True)
    return matrix / np.where(sums > 0, sums, 1.0)


class LPGNet(BaseNodeClassifier):
    """Stacked MLPs over features plus Laplace-noised cluster-degree vectors."""

    name = "LPGNet"

    def __init__(self, epsilon: float = 1.0, delta: float | None = None, stages: int = 2,
                 hidden_dim: int = 64, epochs: int = 200, learning_rate: float = 0.01,
                 weight_decay: float = 1e-5, dropout: float = 0.3):
        check_positive(epsilon, "epsilon")
        if stages < 1:
            raise ConfigurationError(f"stages must be >= 1, got {stages}")
        self.epsilon = epsilon
        self.delta = delta
        self.stages = stages
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.dropout = dropout
        self.models_: list[Sequential] | None = None
        self.ledger_: BudgetLedger | None = None
        self._noisy_vectors: list[np.ndarray] = []
        self._train_graph: GraphDataset | None = None

    # ------------------------------------------------------------------ #
    def fit(self, graph: GraphDataset, seed=None) -> "LPGNet":
        rng = as_rng(seed)
        stage_rngs = spawn_rngs(rng, self.stages + 1)
        delta = resolve_delta(graph, self.delta)
        ledger = BudgetLedger(total_epsilon=self.epsilon, total_delta=delta)
        per_stage_epsilon = self.epsilon / max(self.stages - 1, 1)

        num_classes = graph.num_classes
        models: list[Sequential] = []
        noisy_vectors: list[np.ndarray] = []

        # Stage 0: a plain MLP on the raw features (uses no edges).
        current_input = graph.features
        model = self._build_mlp(current_input.shape[1], num_classes, stage_rngs[0])
        train_full_batch(model, current_input, graph.labels, graph.train_idx,
                         epochs=self.epochs, learning_rate=self.learning_rate,
                         weight_decay=self.weight_decay)
        models.append(model)
        predictions = np.argmax(predict_logits(model, current_input), axis=1)

        # Later stages: append Laplace-noised cluster-degree vectors.
        for stage in range(1, self.stages):
            degree_vectors = cluster_degree_vectors(graph.adjacency, predictions, num_classes)
            noisy = laplace_mechanism(degree_vectors, sensitivity=2.0,
                                      epsilon=per_stage_epsilon, rng=stage_rngs[stage])
            ledger.spend(per_stage_epsilon, 0.0, label=f"cluster degrees stage {stage}")
            noisy = _row_normalize(np.clip(noisy, 0.0, None))
            noisy_vectors.append(noisy)
            current_input = np.concatenate([graph.features] + noisy_vectors, axis=1)
            model = self._build_mlp(current_input.shape[1], num_classes, stage_rngs[stage])
            train_full_batch(model, current_input, graph.labels, graph.train_idx,
                             epochs=self.epochs, learning_rate=self.learning_rate,
                             weight_decay=self.weight_decay)
            models.append(model)
            predictions = np.argmax(predict_logits(model, current_input), axis=1)

        self.models_ = models
        self.ledger_ = ledger
        self._noisy_vectors = noisy_vectors
        self._train_graph = graph
        return self

    def _build_mlp(self, in_dim: int, out_dim: int, rng) -> Sequential:
        return Sequential(
            Linear(in_dim, self.hidden_dim, rng=rng),
            ReLU(),
            Dropout(self.dropout, rng=rng),
            Linear(self.hidden_dim, out_dim, rng=rng),
        )

    # ------------------------------------------------------------------ #
    def decision_scores(self, graph: GraphDataset | None = None) -> np.ndarray:
        models = self._require_fitted("models_")
        graph_used = self._train_graph if graph is None else graph
        if graph is None or graph is self._train_graph:
            if len(models) == 1:
                return predict_logits(models[0], graph_used.features)
            inputs = np.concatenate([graph_used.features] + self._noisy_vectors, axis=1)
            return predict_logits(models[-1], inputs)
        # Unseen graph: fall back to the edge-free first stage (no extra budget).
        return predict_logits(models[0], graph_used.features)
