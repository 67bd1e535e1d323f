"""DPGCN baseline: adjacency-matrix perturbation (LapGraph, Wu et al. 2022).

The mechanism releases a differentially private estimate of the adjacency
matrix and then trains a standard GCN on it:

1. a small fraction of the budget estimates the edge count with the Laplace
   mechanism (sensitivity 1 under edge DP);
2. the remaining budget adds Laplace noise to every cell of the upper
   triangle (sensitivity 1) and keeps the top-k noisy cells, where k is the
   noisy edge count.

Because every cell of the adjacency matrix is perturbed, message aggregation
is severely disrupted, which is exactly the failure mode the paper attributes
to this family of methods.  The dense upper-triangle materialisation limits
this baseline to graphs of a few thousand nodes, matching its original
evaluation scale.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.baselines.base import BaseNodeClassifier, resolve_delta, train_full_batch
from repro.baselines.gcn import TwoLayerGCN
from repro.exceptions import ConfigurationError
from repro.graphs.adjacency import symmetric_normalize
from repro.graphs.graph import GraphDataset
from repro.nn import Tensor
from repro.privacy.accountant import BudgetLedger
from repro.utils.random import as_rng, spawn_rngs
from repro.utils.validation import check_positive


def lapgraph_perturb(adjacency: sp.spmatrix, epsilon: float, count_fraction: float = 0.1,
                     rng=None) -> sp.csr_matrix:
    """Return a DP estimate of ``adjacency`` via the LapGraph mechanism.

    ``count_fraction`` of ``epsilon`` estimates the edge count; the rest
    perturbs the upper-triangular cells.  The output is symmetric and binary.
    """
    if not 0.0 < count_fraction < 1.0:
        raise ConfigurationError(f"count_fraction must be in (0, 1), got {count_fraction}")
    check_positive(epsilon, "epsilon")
    rng = as_rng(rng)
    dense = np.asarray(sp.csr_matrix(adjacency).todense(), dtype=np.float64)
    n = dense.shape[0]
    epsilon_count = epsilon * count_fraction
    epsilon_cells = epsilon - epsilon_count

    true_count = int(np.triu(dense, k=1).sum())
    noisy_count = int(round(true_count + rng.laplace(0.0, 1.0 / epsilon_count)))
    noisy_count = int(np.clip(noisy_count, 0, n * (n - 1) // 2))

    rows, cols = np.triu_indices(n, k=1)
    noisy_cells = dense[rows, cols] + rng.laplace(0.0, 1.0 / epsilon_cells, size=rows.shape[0])
    if noisy_count == 0:
        return sp.csr_matrix((n, n), dtype=np.float64)
    keep = np.argpartition(noisy_cells, -noisy_count)[-noisy_count:]
    perturbed = sp.coo_matrix(
        (np.ones(keep.size), (rows[keep], cols[keep])), shape=(n, n)
    ).tocsr()
    return (perturbed + perturbed.T).tocsr()


class DPGCN(BaseNodeClassifier):
    """GCN trained on a LapGraph-perturbed adjacency matrix (edge-level DP)."""

    name = "DPGCN"

    def __init__(self, epsilon: float = 1.0, delta: float | None = None,
                 hidden_dim: int = 32, epochs: int = 200, learning_rate: float = 0.01,
                 weight_decay: float = 5e-4, dropout: float = 0.3,
                 count_fraction: float = 0.1):
        check_positive(epsilon, "epsilon")
        self.epsilon = epsilon
        self.delta = delta
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.dropout = dropout
        self.count_fraction = count_fraction
        self.model_: TwoLayerGCN | None = None
        self.ledger_: BudgetLedger | None = None
        self.perturbed_adjacency_: sp.csr_matrix | None = None
        self._train_graph: GraphDataset | None = None

    def fit(self, graph: GraphDataset, seed=None) -> "DPGCN":
        rng = as_rng(seed)
        perturb_rng, model_rng = spawn_rngs(rng, 2)
        delta = resolve_delta(graph, self.delta)
        ledger = BudgetLedger(total_epsilon=self.epsilon, total_delta=delta)
        ledger.spend(self.epsilon * self.count_fraction, 0.0, label="edge count")
        ledger.spend(self.epsilon * (1.0 - self.count_fraction), 0.0, label="adjacency cells")

        perturbed = lapgraph_perturb(graph.adjacency, self.epsilon,
                                     count_fraction=self.count_fraction, rng=perturb_rng)
        model = TwoLayerGCN(graph.num_features, self.hidden_dim, graph.num_classes,
                            self.dropout, model_rng)
        model.set_propagation(symmetric_normalize(perturbed))
        train_full_batch(
            model, graph.features, graph.labels, graph.train_idx,
            epochs=self.epochs, learning_rate=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        self.model_ = model
        self.ledger_ = ledger
        self.perturbed_adjacency_ = perturbed
        self._train_graph = graph
        return self

    def decision_scores(self, graph: GraphDataset | None = None) -> np.ndarray:
        model = self._require_fitted("model_")
        graph_used = self._train_graph if graph is None else graph
        # Inference reuses the privately released adjacency when scoring the
        # training graph; a new graph is treated as public test data (the same
        # convention the paper applies to all baselines).
        if graph is None or graph is self._train_graph:
            model.set_propagation(symmetric_normalize(self.perturbed_adjacency_))
        else:
            model.set_propagation(symmetric_normalize(graph_used.adjacency))
        model.eval()
        return model(Tensor(graph_used.features)).data.copy()
