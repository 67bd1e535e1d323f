"""DP-SGD baseline applied to a one-hop simplified GCN.

This is the "classic DP deep learning" approach the paper's introduction uses
to motivate GCON: per-example gradient clipping plus Gaussian noise, with the
caveat that under *edge-level* DP the per-example (per-node) gradients are not
independent of the private record.  For a one-hop model ``logits = Ã X W``,
adding or removing an edge changes the aggregated features of its two
endpoints, hence at most two per-node gradients; with per-node clipping at
``tau`` the L2 sensitivity of the summed gradient is ``2 * tau`` (the
``2 k^{m-1} tau`` factor of the introduction with ``m = 1``).  Deeper models
would need an even larger multiplier, which is why this baseline is run with
one hop.

Privacy accounting composes the Poisson-subsampled Gaussian mechanism over
training steps with the RDP accountant, and the noise multiplier is
calibrated by bisection to meet the requested (epsilon, delta).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaseNodeClassifier, resolve_delta
from repro.exceptions import ConfigurationError
from repro.graphs.adjacency import row_stochastic_normalize
from repro.graphs.graph import GraphDataset
from repro.privacy.accountant import RdpAccountant
from repro.privacy.rdp import calibrate_gaussian_noise_rdp
from repro.utils.math import one_hot, row_normalize_l2, softmax
from repro.utils.random import as_rng, spawn_rngs
from repro.utils.validation import check_positive


class DPSGDGCN(BaseNodeClassifier):
    """One-hop SGC trained with DP-SGD under edge-level sensitivity ``2 tau``."""

    name = "DP-SGD"

    def __init__(self, epsilon: float = 1.0, delta: float | None = None,
                 clipping_norm: float = 1.0, steps: int = 100, batch_size: int = 64,
                 learning_rate: float = 0.1, hops: int = 1):
        check_positive(epsilon, "epsilon")
        if clipping_norm <= 0:
            raise ConfigurationError(f"clipping_norm must be > 0, got {clipping_norm}")
        if steps < 1 or batch_size < 1:
            raise ConfigurationError("steps and batch_size must be >= 1")
        if hops < 1:
            raise ConfigurationError(f"hops must be >= 1, got {hops}")
        self.epsilon = epsilon
        self.delta = delta
        self.clipping_norm = clipping_norm
        self.steps = steps
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.hops = hops
        self.weight_: np.ndarray | None = None
        self.sigma_: float | None = None
        self.accountant_: RdpAccountant | None = None
        self._train_graph: GraphDataset | None = None

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _edge_sensitivity_multiplier(self, graph: GraphDataset) -> float:
        """The ``2 k^{m-1}`` factor by which one edge can touch per-node gradients."""
        if self.hops == 1:
            return 2.0
        max_degree = float(graph.degrees.max()) if graph.num_nodes else 1.0
        return 2.0 * max(max_degree, 1.0) ** (self.hops - 1)

    def _aggregate(self, graph: GraphDataset) -> np.ndarray:
        features = row_normalize_l2(graph.features)
        transition = row_stochastic_normalize(graph.adjacency)
        aggregated = features
        for _ in range(self.hops):
            aggregated = np.asarray(transition @ aggregated)
        return aggregated

    # ------------------------------------------------------------------ #
    def fit(self, graph: GraphDataset, seed=None) -> "DPSGDGCN":
        rng = as_rng(seed)
        sample_rng, noise_rng = spawn_rngs(rng, 2)
        delta = resolve_delta(graph, self.delta)

        aggregated = self._aggregate(graph)
        train_idx = graph.train_idx
        num_train = train_idx.size
        num_classes = graph.num_classes
        labels = one_hot(graph.labels[train_idx], num_classes)
        features = aggregated[train_idx]

        sampling_rate = min(1.0, self.batch_size / max(num_train, 1))
        noise_multiplier = calibrate_gaussian_noise_rdp(
            self.epsilon, delta, sampling_rate, self.steps
        )
        # The Gaussian std applied to the summed clipped gradients: the edge
        # sensitivity multiplier amplifies the clipping norm.
        sensitivity = self._edge_sensitivity_multiplier(graph) * self.clipping_norm
        sigma = noise_multiplier * sensitivity

        accountant = RdpAccountant()
        accountant.add_subsampled_gaussian(sampling_rate, noise_multiplier, self.steps)

        weight = np.zeros((features.shape[1], num_classes))
        for _ in range(self.steps):
            mask = sample_rng.random(num_train) < sampling_rate
            batch = np.flatnonzero(mask)
            if batch.size == 0:
                continue
            logits = features[batch] @ weight
            probabilities = softmax(logits, axis=1)
            residuals = probabilities - labels[batch]
            # Per-node gradients are rank-one: g_i = x_i outer r_i, so the
            # per-node norm factorises as ||x_i|| * ||r_i||.
            feature_norms = np.linalg.norm(features[batch], axis=1)
            residual_norms = np.linalg.norm(residuals, axis=1)
            gradient_norms = feature_norms * residual_norms
            scales = np.minimum(1.0, self.clipping_norm / np.maximum(gradient_norms, 1e-12))
            clipped_sum = (features[batch] * scales[:, np.newaxis]).T @ residuals
            noisy_sum = clipped_sum + noise_rng.normal(0.0, sigma, size=clipped_sum.shape)
            gradient = noisy_sum / max(self.batch_size, 1)
            weight = weight - self.learning_rate * gradient

        self.weight_ = weight
        self.sigma_ = sigma
        self.accountant_ = accountant
        self._train_graph = graph
        return self

    # ------------------------------------------------------------------ #
    def decision_scores(self, graph: GraphDataset | None = None) -> np.ndarray:
        weight = self._require_fitted("weight_")
        graph = self._train_graph if graph is None else graph
        return self._aggregate(graph) @ weight

    @property
    def privacy_spent(self) -> tuple[float, float]:
        """(epsilon, delta) accounted by the RDP accountant for the SGD noise."""
        accountant = self._require_fitted("accountant_")
        delta = resolve_delta(self._train_graph, self.delta)
        return accountant.get_epsilon(delta), delta
