"""ProGAP baseline (Sajadmanesh & Gatica-Perez, WSDM 2024), edge-level variant.

ProGAP extends GAP with a *progressive* architecture: training proceeds in
stages, each stage aggregating the (normalised) output of the previous
stage's MLP with one noisy aggregation round and feeding the concatenation of
everything seen so far into a new MLP head.  Later stages therefore see
increasingly deep, but increasingly noisy, neighbourhood information.  The
per-stage Gaussian noise is calibrated so that the RDP composition over all
stages fits the (epsilon, delta) budget.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.baselines.base import BaseNodeClassifier, predict_logits, resolve_delta, \
    train_full_batch
from repro.baselines.gap import EDGE_AGGREGATION_SENSITIVITY, calibrate_hop_sigma
from repro.exceptions import ConfigurationError
from repro.graphs.graph import GraphDataset
from repro.nn import Dropout, Linear, ReLU, Sequential
from repro.privacy.accountant import RdpAccountant
from repro.utils.math import row_normalize_l2
from repro.utils.random import as_rng, spawn_rngs
from repro.utils.validation import check_positive


class ProGAP(BaseNodeClassifier):
    """Progressive aggregation-perturbation GNN with edge-level DP."""

    name = "ProGAP"

    def __init__(self, epsilon: float = 1.0, delta: float | None = None, stages: int = 3,
                 encoder_dim: int = 16, hidden_dim: int = 64, epochs: int = 150,
                 learning_rate: float = 0.01, weight_decay: float = 1e-5,
                 dropout: float = 0.3):
        check_positive(epsilon, "epsilon")
        if stages < 2:
            raise ConfigurationError(f"stages must be >= 2, got {stages}")
        self.epsilon = epsilon
        self.delta = delta
        self.stages = stages
        self.encoder_dim = encoder_dim
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.dropout = dropout
        self.heads_: list[Sequential] | None = None
        self.bodies_: list[Sequential] | None = None
        self.accountant_: RdpAccountant | None = None
        self.sigma_: float | None = None
        self._cached_inputs: np.ndarray | None = None
        self._train_graph: GraphDataset | None = None

    def _build_body(self, in_dim: int, rng) -> Sequential:
        return Sequential(
            Linear(in_dim, self.hidden_dim, rng=rng),
            ReLU(),
            Dropout(self.dropout, rng=rng),
            Linear(self.hidden_dim, self.encoder_dim, rng=rng),
            ReLU(),
        )

    # ------------------------------------------------------------------ #
    def fit(self, graph: GraphDataset, seed=None) -> "ProGAP":
        rng = as_rng(seed)
        stage_rngs = spawn_rngs(rng, self.stages)
        noise_rng = as_rng(rng)
        delta = resolve_delta(graph, self.delta)
        # Stage 0 uses no edges; the remaining stages each spend one noisy
        # aggregation, so stages - 1 Gaussian invocations are composed.
        noisy_rounds = self.stages - 1
        sigma = calibrate_hop_sigma(self.epsilon, delta, noisy_rounds)
        accountant = RdpAccountant()
        adjacency = sp.csr_matrix(graph.adjacency)

        bodies: list[Sequential] = []
        heads: list[Sequential] = []
        history_blocks: list[np.ndarray] = []
        stage_input = graph.features

        for stage in range(self.stages):
            body = self._build_body(stage_input.shape[1], stage_rngs[stage])
            head = Sequential(body, Linear(self.encoder_dim, graph.num_classes,
                                           rng=stage_rngs[stage]))
            train_full_batch(head, stage_input, graph.labels, graph.train_idx,
                             epochs=self.epochs, learning_rate=self.learning_rate,
                             weight_decay=self.weight_decay)
            bodies.append(body)
            heads.append(head)
            embedding = row_normalize_l2(predict_logits(body, stage_input))
            history_blocks.append(embedding)
            if stage == self.stages - 1:
                break
            summed = np.asarray(adjacency @ embedding)
            noisy = summed + noise_rng.normal(0.0, sigma, size=summed.shape)
            accountant.add_gaussian(sigma, sensitivity=EDGE_AGGREGATION_SENSITIVITY)
            aggregated = row_normalize_l2(noisy)
            stage_input = np.concatenate(history_blocks + [aggregated], axis=1)

        self.bodies_ = bodies
        self.heads_ = heads
        self.accountant_ = accountant
        self.sigma_ = sigma
        self._cached_inputs = stage_input
        self._train_graph = graph
        return self

    # ------------------------------------------------------------------ #
    def decision_scores(self, graph: GraphDataset | None = None) -> np.ndarray:
        heads = self._require_fitted("heads_")
        if graph is None or graph is self._train_graph:
            return predict_logits(heads[-1], self._cached_inputs)
        # Unseen public graph: replay the progressive pipeline without noise.
        bodies = self._require_fitted("bodies_")
        adjacency = sp.csr_matrix(graph.adjacency)
        history_blocks: list[np.ndarray] = []
        stage_input = graph.features
        for stage, body in enumerate(bodies):
            embedding = row_normalize_l2(predict_logits(body, stage_input))
            history_blocks.append(embedding)
            if stage == len(bodies) - 1:
                break
            aggregated = row_normalize_l2(np.asarray(adjacency @ embedding))
            stage_input = np.concatenate(history_blocks + [aggregated], axis=1)
        return predict_logits(heads[-1], stage_input)

    @property
    def privacy_spent(self) -> tuple[float, float]:
        """(epsilon, delta) actually accounted for the aggregation noise."""
        accountant = self._require_fitted("accountant_")
        delta = resolve_delta(self._train_graph, self.delta)
        return accountant.get_epsilon(delta), delta
