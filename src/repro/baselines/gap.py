"""GAP baseline (Sajadmanesh et al., USENIX Security 2023), edge-level variant.

GAP ("GNNs with Aggregation Perturbation") keeps the adjacency matrix intact
but adds Gaussian noise to each round of message aggregation:

1. **Encoder** -- an MLP trained on (public) features/labels embeds nodes into
   a low-dimensional space; embeddings are L2-normalised.
2. **Private multi-hop aggregation** -- for each of ``hops`` rounds, the
   row-normalised embeddings are summed over neighbours and Gaussian noise is
   added.  Under edge-level DP, adding or removing one undirected edge
   changes two rows of the sum by a vector of norm at most 1 each, so the L2
   sensitivity per hop is ``sqrt(2)``.  The per-hop noise scale is calibrated
   so that the RDP composition over all hops meets the (epsilon, delta)
   budget.
3. **Classifier** -- an MLP trained on the concatenation of the noisy
   aggregates of all hops (plus the hop-0 embeddings).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.baselines.base import BaseNodeClassifier, predict_logits, resolve_delta, \
    train_full_batch
from repro.exceptions import ConfigurationError, PrivacyBudgetError
from repro.graphs.graph import GraphDataset
from repro.nn import Dropout, Linear, ReLU, Sequential
from repro.privacy.accountant import RdpAccountant
from repro.privacy.rdp import DEFAULT_ORDERS, rdp_gaussian, rdp_to_dp
from repro.utils.math import row_normalize_l2
from repro.utils.random import as_rng, spawn_rngs
from repro.utils.validation import check_positive

#: Edge-level L2 sensitivity of one sum-aggregation round over unit-norm rows.
EDGE_AGGREGATION_SENSITIVITY = float(np.sqrt(2.0))


def calibrate_hop_sigma(epsilon: float, delta: float, hops: int,
                        sensitivity: float = EDGE_AGGREGATION_SENSITIVITY) -> float:
    """Smallest per-hop Gaussian sigma whose ``hops``-fold RDP composition fits the budget."""
    check_positive(epsilon, "epsilon", error=PrivacyBudgetError)
    if not 0 < delta < 1:
        raise PrivacyBudgetError("invalid (epsilon, delta) for GAP calibration")
    if hops < 1:
        raise ConfigurationError(f"hops must be >= 1, got {hops}")
    orders = np.asarray(DEFAULT_ORDERS)

    def epsilon_of(sigma: float) -> float:
        rdp = hops * rdp_gaussian(sigma, orders, sensitivity)
        return rdp_to_dp(rdp, delta, orders)[0]

    low, high = 1e-3, 1.0
    while epsilon_of(high) > epsilon:
        high *= 2.0
        if high > 1e7:  # pragma: no cover - defensive
            raise PrivacyBudgetError("failed to bracket GAP noise calibration")
    for _ in range(80):
        mid = 0.5 * (low + high)
        if epsilon_of(mid) > epsilon:
            low = mid
        else:
            high = mid
    return high


class GAP(BaseNodeClassifier):
    """Edge-level GAP: encoder, noisy multi-hop aggregation, classification head."""

    name = "GAP"

    def __init__(self, epsilon: float = 1.0, delta: float | None = None, hops: int = 2,
                 encoder_dim: int = 16, hidden_dim: int = 64, epochs: int = 200,
                 learning_rate: float = 0.01, weight_decay: float = 1e-5,
                 dropout: float = 0.3):
        check_positive(epsilon, "epsilon")
        if hops < 1:
            raise ConfigurationError(f"hops must be >= 1, got {hops}")
        self.epsilon = epsilon
        self.delta = delta
        self.hops = hops
        self.encoder_dim = encoder_dim
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.dropout = dropout
        self.encoder_: Sequential | None = None
        self.classifier_: Sequential | None = None
        self.accountant_: RdpAccountant | None = None
        self.sigma_: float | None = None
        self._cached_features: np.ndarray | None = None
        self._train_graph: GraphDataset | None = None

    # ------------------------------------------------------------------ #
    def fit(self, graph: GraphDataset, seed=None) -> "GAP":
        rng = as_rng(seed)
        encoder_rng, noise_rng, classifier_rng = spawn_rngs(rng, 3)
        delta = resolve_delta(graph, self.delta)

        # Stage 1: public encoder on raw features.
        encoder = Sequential(
            Linear(graph.num_features, self.hidden_dim, rng=encoder_rng),
            ReLU(),
            Dropout(self.dropout, rng=encoder_rng),
            Linear(self.hidden_dim, self.encoder_dim, rng=encoder_rng),
            ReLU(),
        )
        head = Sequential(encoder, Linear(self.encoder_dim, graph.num_classes, rng=encoder_rng))
        train_full_batch(head, graph.features, graph.labels, graph.train_idx,
                         epochs=self.epochs, learning_rate=self.learning_rate,
                         weight_decay=self.weight_decay)
        embeddings = row_normalize_l2(predict_logits(encoder, graph.features))

        # Stage 2: private multi-hop aggregation.
        sigma = calibrate_hop_sigma(self.epsilon, delta, self.hops)
        accountant = RdpAccountant()
        adjacency = sp.csr_matrix(graph.adjacency)
        aggregates = [embeddings]
        current = embeddings
        for _ in range(self.hops):
            summed = np.asarray(adjacency @ current)
            noisy = summed + noise_rng.normal(0.0, sigma, size=summed.shape)
            accountant.add_gaussian(sigma, sensitivity=EDGE_AGGREGATION_SENSITIVITY)
            current = row_normalize_l2(noisy)
            aggregates.append(current)

        cached = np.concatenate(aggregates, axis=1)

        # Stage 3: classification head on the concatenated (noisy) aggregates.
        classifier = Sequential(
            Linear(cached.shape[1], self.hidden_dim, rng=classifier_rng),
            ReLU(),
            Dropout(self.dropout, rng=classifier_rng),
            Linear(self.hidden_dim, graph.num_classes, rng=classifier_rng),
        )
        train_full_batch(classifier, cached, graph.labels, graph.train_idx,
                         epochs=self.epochs, learning_rate=self.learning_rate,
                         weight_decay=self.weight_decay)

        self.encoder_ = encoder
        self.classifier_ = classifier
        self.accountant_ = accountant
        self.sigma_ = sigma
        self._cached_features = cached
        self._train_graph = graph
        return self

    # ------------------------------------------------------------------ #
    def decision_scores(self, graph: GraphDataset | None = None) -> np.ndarray:
        classifier = self._require_fitted("classifier_")
        if graph is None or graph is self._train_graph:
            return predict_logits(classifier, self._cached_features)
        # Unseen (public) test graph: aggregate without noise, as in the
        # paper's convention of non-private inference over the node's own edges.
        encoder = self._require_fitted("encoder_")
        embeddings = row_normalize_l2(predict_logits(encoder, graph.features))
        adjacency = sp.csr_matrix(graph.adjacency)
        aggregates = [embeddings]
        current = embeddings
        for _ in range(self.hops):
            current = row_normalize_l2(np.asarray(adjacency @ current))
            aggregates.append(current)
        return predict_logits(classifier, np.concatenate(aggregates, axis=1))

    @property
    def privacy_spent(self) -> tuple[float, float]:
        """(epsilon, delta) actually accounted for the aggregation noise."""
        accountant = self._require_fitted("accountant_")
        delta = resolve_delta(self._train_graph, self.delta)
        return accountant.get_epsilon(delta), delta
